package lat

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand/v2"
	"testing"
)

func TestComponentStringsStable(t *testing.T) {
	// The strings are metrics-JSON keys; renaming them breaks consumers.
	want := []string{
		"ctlb_lookup", "pt_walk", "gipt_update", "victim_probe",
		"inpkg_queue", "inpkg_service", "offpkg_queue", "offpkg_service",
		"writeback", "ptwalk_guest", "ptwalk_host", "tlb_shootdown",
	}
	if int(NumComponents) != len(want) {
		t.Fatalf("NumComponents = %d, want %d", NumComponents, len(want))
	}
	for i, w := range want {
		if got := Component(i).String(); got != w {
			t.Errorf("Component(%d).String() = %q, want %q", i, got, w)
		}
	}
	if got := Component(-1).String(); got != "unknown" {
		t.Errorf("Component(-1).String() = %q", got)
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{64, 1 << 63, math.MaxUint64},
	}
	for _, c := range cases {
		lo, hi := BucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("BucketBounds(%d) = [%d,%d], want [%d,%d]", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestHistObserveAndQuantile(t *testing.T) {
	var h Hist
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d", h.Max())
	}
	if h.Sum() != 1000*1001/2 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if got, want := h.Mean(), 500.5; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	// Log2 buckets bound quantile error to 2x; interpolation keeps the
	// estimate well within a bucket of the true value.
	for _, c := range []struct{ p, truth float64 }{
		{50, 500}, {90, 900}, {99, 990},
	} {
		got := h.Quantile(c.p)
		if got < c.truth/2 || got > c.truth*2 {
			t.Errorf("Quantile(%v) = %v, not within 2x of %v", c.p, got, c.truth)
		}
	}
	// Quantiles are clamped to the exact max.
	if got := h.Quantile(100); got != 1000 {
		t.Errorf("Quantile(100) = %v, want clamped max 1000", got)
	}
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(101)) || !math.IsNaN(h.Quantile(math.NaN())) {
		t.Errorf("invalid p must return NaN")
	}
}

func TestHistZeroSamples(t *testing.T) {
	var h Hist
	if got := h.Quantile(50); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
	h.Observe(0)
	h.Observe(0)
	if got := h.Quantile(99); got != 0 {
		t.Errorf("all-zero Quantile = %v", got)
	}
	rows := h.Rows()
	if len(rows) != 1 || rows[0].Lo != 0 || rows[0].Count != 2 {
		t.Errorf("Rows = %+v", rows)
	}
}

func TestQuantileOfMatchesHist(t *testing.T) {
	var h Hist
	for _, v := range []uint64{3, 7, 7, 64, 200, 200, 200, 1 << 20} {
		h.Observe(v)
	}
	counts := h.Counts()
	for _, p := range []float64{10, 50, 90, 99.9} {
		a, b := QuantileOf(&counts, p), h.Quantile(p)
		// Hist.Quantile only differs by max-clamping.
		if b > a {
			t.Errorf("p=%v: clamped %v > raw %v", p, b, a)
		}
	}
}

func TestRecorderConservation(t *testing.T) {
	var r Recorder
	r.Enable()

	r.Begin()
	r.Add(InPkgQueue, 10)
	r.Add(InPkgService, 32)
	r.CommitL3(42)

	r.Begin()
	r.Add(PTWalk, 100)
	r.Add(OffPkgQueue, 5)
	r.Add(OffPkgService, 200)
	r.Add(GIPTUpdate, 50)
	r.CommitHandler(355)

	r.AddBackground(Writeback, 400)

	s := r.Summary()
	if s.L3.Residue != 0 || s.Handler.Residue != 0 || s.Bg.Residue != 0 {
		t.Fatalf("residues nonzero: %d %d %d", s.L3.Residue, s.Handler.Residue, s.Bg.Residue)
	}
	if s.L3.Measured != 42 || s.L3.Commits != 1 || s.L3.Total() != 42 {
		t.Errorf("L3 breakdown: %+v", s.L3)
	}
	if s.Handler.Measured != 355 || s.Handler.Cycles[PTWalk] != 100 {
		t.Errorf("Handler breakdown: %+v", s.Handler)
	}
	if s.Bg.Cycles[Writeback] != 400 || s.Bg.Measured != 400 {
		t.Errorf("Bg breakdown: %+v", s.Bg)
	}
	if s.L3Lat.Count() != 1 || s.HandlerLat.Count() != 1 {
		t.Errorf("hist counts: %d %d", s.L3Lat.Count(), s.HandlerLat.Count())
	}

	// A mis-attributed commit shows up as residue.
	r.Begin()
	r.Add(InPkgService, 30)
	r.CommitL3(42)
	if got := r.Summary().L3.Residue; got != 12 {
		t.Errorf("Residue = %d, want 12", got)
	}
}

func TestRecorderSpanClearedBetweenScopes(t *testing.T) {
	var r Recorder
	r.Enable()
	r.Begin()
	r.Add(PTWalk, 7)
	// Scope abandoned (e.g. warmup boundary); next Begin must not leak it.
	r.Begin()
	r.Add(InPkgService, 5)
	r.CommitL3(5)
	if got := r.Summary().L3.Residue; got != 0 {
		t.Fatalf("leaked span: residue %d", got)
	}
	// Commit itself also clears the span.
	r.Add(OffPkgService, 9)
	r.CommitHandler(9)
	if s := r.Summary(); s.Handler.Residue != 0 || s.Handler.Cycles[InPkgService] != 0 {
		t.Fatalf("commit leaked span: %+v", s.Handler)
	}
}

func TestRecorderDisabledAndNil(t *testing.T) {
	var r Recorder // not enabled
	r.Begin()
	r.Add(PTWalk, 10)
	r.CommitHandler(10)
	r.AddBackground(Writeback, 10)
	if s := r.Summary(); s.Handler.Commits != 0 || s.Bg.Commits != 0 {
		t.Fatalf("disabled recorder accumulated: %+v", s)
	}

	var nr *Recorder
	nr.Begin()
	nr.Add(PTWalk, 1)
	nr.CommitL3(1)
	nr.CommitHandler(1)
	nr.AddBackground(Writeback, 1)
	nr.Enable()
	nr.Reset()
	if nr.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if s := nr.Summary(); s.L3.Commits != 0 {
		t.Fatalf("nil Summary: %+v", s)
	}
}

func TestRecorderResetDisables(t *testing.T) {
	var r Recorder
	r.Enable()
	r.Begin()
	r.Add(PTWalk, 3)
	r.CommitHandler(3)
	r.Reset()
	if r.Enabled() {
		t.Fatal("Reset left recorder enabled")
	}
	if s := r.Summary(); s.Handler.Commits != 0 {
		t.Fatalf("Reset kept state: %+v", s)
	}
}

func TestRecorderAllocFree(t *testing.T) {
	var r Recorder
	r.Enable()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Begin()
		r.Add(InPkgQueue, 3)
		r.Add(InPkgService, 39)
		r.CommitL3(42)
		r.Begin()
		r.Add(PTWalk, 90)
		r.CommitHandler(90)
		r.AddBackground(Writeback, 10)
	})
	if allocs != 0 {
		t.Fatalf("recorder allocates: %v allocs/op", allocs)
	}
}

// TestHistBinaryRoundTrip pins the fixed binary image Hist serializes to:
// random histograms, extreme values included, round-trip exactly (also
// nested in a gob stream, as the result cache carries them), and every
// truncation or trailing byte is rejected without touching the target.
func TestHistBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var h Hist
		for i := range h.counts {
			switch rng.IntN(4) {
			case 0:
				h.counts[i] = ^uint64(0)
			case 1:
				h.counts[i] = rng.Uint64()
			case 2:
				h.counts[i] = uint64(rng.IntN(200))
			}
		}
		h.total, h.sum, h.max = rng.Uint64(), ^uint64(0), rng.Uint64()>>uint(rng.IntN(64))
		if trial == 0 {
			h = Hist{}
		}
		img, err := h.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var got Hist
		if err := got.GobDecode(img); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != h {
			t.Fatalf("trial %d: round trip changed the histogram", trial)
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&h); err != nil {
			t.Fatal(err)
		}
		var viaGob Hist
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil || viaGob != h {
			t.Fatalf("trial %d: gob round trip: %v", trial, err)
		}

		sentinel := Hist{total: 7}
		for n := 0; n < len(img); n++ {
			dst := sentinel
			if err := dst.GobDecode(img[:n]); err == nil {
				t.Fatalf("trial %d: accepted a %d-of-%d-byte truncation", trial, n, len(img))
			}
			if dst != sentinel {
				t.Fatalf("trial %d: failed decode modified the histogram", trial)
			}
		}
		if err := got.GobDecode(append(img[:len(img):len(img)], 0)); err == nil {
			t.Fatalf("trial %d: accepted a trailing byte", trial)
		}
	}
}
