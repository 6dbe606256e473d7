package resultcache

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"testing"

	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/obs"
	"taglessdram/internal/sim"
	"taglessdram/internal/system"
)

// richResult fills the parts of a Result a real run carries beyond the
// scalars: an epoch series, per-bank DRAM statistics and non-empty
// latency histograms.
func richResult() *system.Result {
	r := sampleResult()
	r.Epochs = []obs.Epoch{
		{Index: 0, EndCycle: 1000, Refs: 400, IPC: 0.5, L3Accesses: 90, L3Hits: 60},
		{Index: 1, EndCycle: 2100, Refs: 410, IPC: 0.6, L3Accesses: 95, L3Hits: 70},
	}
	r.InPkgBankStats = []dram.BankStat{{Hits: 5, Confls: 2, BusyTicks: 300}, {Hits: 9, BusyTicks: 120}}
	r.OffPkgBankStats = []dram.BankStat{{Confls: 4, BusyTicks: 800}}
	var rec lat.Recorder
	rec.Enable()
	for _, d := range []sim.Tick{0, 3, 40, 41, 700, 1 << 20} {
		rec.Begin()
		rec.Add(lat.InPkgService, d)
		rec.CommitL3(d)
		rec.Begin()
		rec.Add(lat.PTWalk, 2*d)
		rec.CommitHandler(2 * d)
		rec.AddBackground(lat.Writeback, d)
	}
	r.Latency = rec.Summary()
	return r
}

// freshDecode is the reference the primed path must agree with: a new
// gob.Decoder per stream.
func freshDecode(t testing.TB, payload []byte) *system.Result {
	t.Helper()
	r := new(system.Result)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(r); err != nil {
		t.Fatal(err)
	}
	return r
}

func mustEncode(t testing.TB, r *system.Result) []byte {
	t.Helper()
	payload, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestSplitGob pins the stream splitter against real encoder output:
// a Result payload and an envelope both split into a non-empty
// definition prefix plus exactly one value message, and anything that is
// not one such stream does not split.
func TestSplitGob(t *testing.T) {
	payload := mustEncode(t, richResult())
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("split")
	if err := s.Put(key, "split", richResult()); err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"payload": payload, "entry": entry} {
		n, ok := splitGob(data)
		if !ok || n == 0 || n >= len(data) {
			t.Fatalf("%s: split = %d, %t over %d bytes", name, n, ok, len(data))
		}
		if _, ok := splitGob(data[:n]); ok {
			t.Errorf("%s: definitions alone split", name)
		}
		if _, ok := splitGob(data[:len(data)-1]); ok {
			t.Errorf("%s: truncated stream split", name)
		}
		if _, ok := splitGob(append(data[:len(data):len(data)], data[n:]...)); ok {
			t.Errorf("%s: stream with two value messages split", name)
		}
	}
	if _, ok := splitGob(nil); ok {
		t.Error("empty input split")
	}
}

// TestPrimedDecodeRepeats decodes one payload many times: every decode
// after the first goes through the primed decoder and must reproduce
// the payload byte for byte.
func TestPrimedDecodeRepeats(t *testing.T) {
	payload := mustEncode(t, richResult())
	n, _ := splitGob(payload)
	want := mustEncode(t, freshDecode(t, payload))
	if !bytes.Equal(want, payload) {
		t.Fatal("fresh decode does not re-encode to the payload")
	}
	for i := 0; i < 5; i++ {
		r, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustEncode(t, r); !bytes.Equal(got, want) {
			t.Fatalf("decode %d re-encodes differently", i)
		}
		primed.mu.Lock()
		_, held := primed.m[string(payload[:n])]
		primed.mu.Unlock()
		if !held {
			t.Fatalf("decode %d left no primed decoder for the payload's definitions", i)
		}
	}
}

// TestPrimedTableBounded feeds more distinct definition prefixes than the
// table holds: every stream still decodes exactly and the table stays
// within its bound.
func TestPrimedTableBounded(t *testing.T) {
	for n := 1; n <= 3*maxPrimed; n++ {
		typ := reflect.ArrayOf(n, reflect.TypeOf(uint64(0)))
		v := reflect.New(typ).Elem()
		for i := 0; i < n; i++ {
			v.Index(i).SetUint(uint64(i * n))
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		if _, ok := splitGob(buf.Bytes()); !ok {
			t.Fatalf("[%d]uint64 stream does not split", n)
		}
		for rep := 0; rep < 2; rep++ {
			got := reflect.New(typ)
			if err := decodeGob(buf.Bytes(), got.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), v.Interface()) {
				t.Fatalf("[%d]uint64 decoded to %v", n, got.Elem())
			}
		}
		if l := primedLen(); l > maxPrimed {
			t.Fatalf("primed table holds %d decoders, bound %d", l, maxPrimed)
		}
	}
}

// TestPrimedDecoderDroppedOnError: a stream whose definitions are valid
// but whose value does not fit the target fails exactly as a fresh
// decoder fails, and the decoder that saw the failure leaves the table.
func TestPrimedDecoderDroppedOnError(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Workload int }{7}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n, ok := splitGob(data)
	if !ok {
		t.Fatal("stream does not split")
	}
	for i := 0; i < 2; i++ {
		if err := decodeGob(data, new(system.Result)); err == nil {
			t.Fatal("int field decoded into a string field")
		}
		primed.mu.Lock()
		_, held := primed.m[string(data[:n])]
		primed.mu.Unlock()
		if held {
			t.Fatal("failed decoder kept in the table")
		}
	}
}

// FuzzDecodeEntry throws damaged entries at the hit path. Whatever the
// bytes, Get must not panic and must either hit or count a miss plus an
// eviction; and no failure may poison the primed decoders — a valid
// entry must still decode to a Result that re-encodes byte for byte.
func FuzzDecodeEntry(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := KeyOf("fuzz")
	want := mustEncode(f, richResult())
	if err := s.Put(key, "fuzz", richResult()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	n, _ := splitGob(valid)
	f.Add(valid)
	f.Add(want)
	for _, cut := range []int{0, 1, n / 2, n, n + 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		_, hit := s.Get(key)
		after := s.Stats()
		if hit {
			if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Evicted != before.Evicted {
				t.Fatalf("hit counted as %+v -> %+v", before, after)
			}
		} else {
			if after.Misses != before.Misses+1 || after.Evicted != before.Evicted+1 || after.Hits != before.Hits {
				t.Fatalf("rejected entry counted as %+v -> %+v, want one miss and one eviction", before, after)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatalf("rejected entry still on disk: %v", err)
			}
		}
		// The same bytes as a bare payload exercise the Result decoder
		// without the checksum in front of it.
		Decode(data)

		r, err := decodeEntry(key, valid)
		if err != nil {
			t.Fatalf("valid entry rejected after fuzz input: %v", err)
		}
		if got := mustEncode(t, r); !bytes.Equal(got, want) {
			t.Fatal("valid entry re-encodes differently after fuzz input")
		}
	})
}

// BenchmarkStoreGet is the cost of one warm hit: file read, envelope
// decode, checksum and Result decode.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := KeyOf("bench")
	if err := s.Put(key, "bench", richResult()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
