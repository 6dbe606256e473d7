package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset = %d, want 0", c.Value())
	}
}

func TestCounterRatio(t *testing.T) {
	var hits, total Counter
	if r := hits.Ratio(&total); r != 0 {
		t.Fatalf("ratio with zero denominator = %v, want 0", r)
	}
	hits.Add(3)
	total.Add(4)
	if r := hits.Ratio(&total); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
}

func TestMeanKnownValues(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if got := m.Value(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Sample variance of that series is 32/7.
	if got := m.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, 32.0/7.0)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", m.Min(), m.Max())
	}
	if got := m.Sum(); math.Abs(got-40) > 1e-9 {
		t.Errorf("sum = %v, want 40", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Fatal("empty mean should report zeros")
	}
}

func TestMeanReset(t *testing.T) {
	var m Mean
	m.Observe(10)
	m.Reset()
	if m.Count() != 0 || m.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: mean is always bounded by [min, max] of the observed samples.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow in m2.
			if math.Abs(x) > 1e12 {
				continue
			}
			m.Observe(x)
			n++
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if n == 0 {
			return m.Value() == 0
		}
		v := m.Value()
		const eps = 1e-6
		return v >= lo-eps*(1+math.Abs(lo)) && v <= hi+eps*(1+math.Abs(hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	// Non-positive entries are skipped.
	if got := GeoMean([]float64{0, -1, 9}); math.Abs(got-9) > 1e-12 {
		t.Errorf("geomean with skips = %v, want 9", got)
	}
}

func TestRegistryOrderAndOverwrite(t *testing.T) {
	r := NewRegistry()
	r.Set("b", 1)
	r.Set("a", 2)
	r.Set("b", 3) // overwrite keeps position
	names := r.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names = %v, want [b a]", names)
	}
	if v, ok := r.Get("b"); !ok || v != 3 {
		t.Fatalf("get b = %v,%v, want 3,true", v, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("missing key should not be present")
	}
	sorted := r.Sorted()
	if sorted[0].Name != "a" || sorted[1].Name != "b" {
		t.Fatalf("sorted = %v", sorted)
	}
	if r.String() == "" {
		t.Fatal("string form should not be empty")
	}
}

// The zero-value Registry must be usable; before the fix, Set on a
// zero-value Registry panicked writing to its nil map.
func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	if _, ok := r.Get("x"); ok {
		t.Fatal("zero registry should have no values")
	}
	if s := r.String(); s != "" {
		t.Fatalf("zero registry String() = %q, want empty", s)
	}
	if got := r.Sorted(); len(got) != 0 {
		t.Fatalf("zero registry Sorted() = %v, want empty", got)
	}
	r.Set("x", 1.5)
	if v, ok := r.Get("x"); !ok || v != 1.5 {
		t.Fatalf("get after zero-value Set = %v,%v, want 1.5,true", v, ok)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v, want [x]", names)
	}
}

func TestRatioPooledValue(t *testing.T) {
	var r Ratio
	if r.Value() != 0 || r.CI95() != 0 {
		t.Fatal("zero value should report 0 estimate and 0 CI")
	}
	// Pairs with a common true ratio of 2 but varying denominators: the
	// pooled estimate is exactly 2 and the residual variance is zero.
	for _, x := range []float64{1, 3, 10, 0.5} {
		r.Observe(2*x, x)
	}
	if got := r.Value(); got != 2 {
		t.Fatalf("Value() = %v, want 2", got)
	}
	if got := r.CI95(); got != 0 {
		t.Fatalf("CI95() on exact-fit pairs = %v, want 0", got)
	}
	if r.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", r.Count())
	}
	r.Reset()
	if r.Count() != 0 || r.Value() != 0 {
		t.Fatal("Reset() did not clear the accumulator")
	}
}

func TestRatioBeatsMeanOfRatios(t *testing.T) {
	// Fixed numerator, varying denominator — the setting where the mean
	// of per-pair ratios is Jensen-biased above the pooled ratio, which
	// is the quantity an uninterrupted run would report.
	var r Ratio
	var m Mean
	ys := []float64{100, 100, 100, 100}
	xs := []float64{40, 60, 50, 70}
	var sy, sx float64
	for i := range ys {
		r.Observe(ys[i], xs[i])
		m.Observe(ys[i] / xs[i])
		sy += ys[i]
		sx += xs[i]
	}
	want := sy / sx
	if got := r.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Value() = %v, want pooled %v", got, want)
	}
	if m.Value() <= r.Value() {
		t.Fatalf("mean of ratios %v should exceed pooled ratio %v on varying denominators", m.Value(), r.Value())
	}
	if ci := r.CI95(); ci <= 0 {
		t.Fatalf("CI95() = %v, want positive on noisy pairs", ci)
	}
}
