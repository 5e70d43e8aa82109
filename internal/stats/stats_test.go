package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 || h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatalf("single-sample stats wrong: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramQuantilePrecision(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		err := float64(got-tc.want) / float64(tc.want)
		if err < -0.02 || err > 0.02 {
			t.Fatalf("q%.2f = %v, want %v ± 2%%", tc.q, got, tc.want)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Microsecond)
	h.Record(30 * time.Microsecond)
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(time.Duration(-5)) // clamped to the 1ns floor
	h.Record(20 * time.Minute)  // beyond top octave, clamped
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(1) < 17*time.Minute {
		t.Fatalf("max quantile = %v", h.Quantile(1))
	}
}

// Property: quantile is monotonically non-decreasing in q and bounded by
// min/max.
func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			if cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: relative bucket error stays under ~1.2% across magnitudes.
func TestHistogramRelativeError(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		v := time.Duration(1 + r.Int63n(int64(10*time.Second)))
		h := NewHistogram()
		h.Record(v)
		got := h.Quantile(0.5)
		relErr := float64(v-got) / float64(v)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.012 {
			t.Fatalf("value %v recovered as %v (err %.4f)", v, got, relErr)
		}
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.At(40); got != 0.40 {
		t.Fatalf("At(40) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(1000); got != 1 {
		t.Fatalf("At(1000) = %v", got)
	}
}

func TestCDFInterleavedAddQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	_ = c.At(5)
	c.Add(1) // must re-sort
	if got := c.At(1); got != 0.5 {
		t.Fatalf("At(1) = %v after re-add", got)
	}
}

// Regression: the histogram's clamp is single-sourced at the 1ns domain
// floor. The old code clamped negatives to 0 in Record but to 1 in
// bucketIndex, so Min() could report 0ns while every bucket said 1ns.
func TestHistogramFloorSingleSourced(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(-time.Second)
	if got := h.Min(); got != time.Nanosecond {
		t.Fatalf("Min = %v, want 1ns (the bucket floor)", got)
	}
	if got := h.Quantile(0); got != time.Nanosecond {
		t.Fatalf("Quantile(0) = %v, want 1ns", got)
	}
	if got := h.Quantile(1); got != time.Nanosecond {
		t.Fatalf("Quantile(1) = %v, want 1ns (max is also clamped)", got)
	}
	if got := h.Max(); got != time.Nanosecond {
		t.Fatalf("Max = %v, want 1ns", got)
	}
}

// CDF.At must agree with the naive definition P(X <= v) on duplicate-heavy
// sample sets (where the old linear scan was O(n) but still correct — this
// pins the binary-search rewrite to the same answers).
func TestCDFAtDuplicateHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sizes := []float64{4096, 8192, 16384, 65536} // Fig. 5-style popular sizes
	var c CDF
	var raw []float64
	for i := 0; i < 5000; i++ {
		v := sizes[r.Intn(len(sizes))]
		c.Add(v)
		raw = append(raw, v)
	}
	naive := func(v float64) float64 {
		n := 0
		for _, s := range raw {
			if s <= v {
				n++
			}
		}
		return float64(n) / float64(len(raw))
	}
	for _, v := range []float64{0, 4095, 4096, 4097, 8192, 16384, 65536, 1e9} {
		if got, want := c.At(v), naive(v); got != want {
			t.Fatalf("At(%v) = %v, want %v", v, got, want)
		}
	}
}

// BenchmarkCDFAt gates the CDF.At complexity fix: with every sample equal,
// the old post-binary-search linear scan walked the whole run per query
// (O(n)); the sort.Search upper bound keeps each query O(log n). The
// benchmark is wired into `make bench-smoke` so a regression to linear
// behavior shows up as a ~1000x ns/op jump.
func BenchmarkCDFAt(b *testing.B) {
	var c CDF
	for i := 0; i < 1<<16; i++ {
		c.Add(4096) // worst case: one giant run of duplicates
	}
	c.At(0) // pre-sort outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.At(4096); got != 1 {
			b.Fatalf("At = %v", got)
		}
	}
}

// Property: Histogram.Quantile tracks the exact nearest-rank quantile of
// the raw samples within the ~1% log-bucket width, for random sample sets
// and a spread of quantiles.
func TestHistogramQuantileNearestRank(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	qs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(400)
		samples := make([]int64, n)
		h := NewHistogram()
		// Mix magnitudes so buckets across many octaves are exercised.
		scale := int64(1) << uint(r.Intn(30))
		for i := range samples {
			v := 1 + r.Int63n(scale)
			samples[i] = v
			h.Record(time.Duration(v))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range qs {
			rank := int(q * float64(n)) // same index convention as Quantile
			if rank >= n {
				rank = n - 1
			}
			exact := samples[rank]
			got := int64(h.Quantile(q))
			relErr := float64(got-exact) / float64(exact)
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > 0.012 {
				t.Fatalf("trial %d n=%d q=%.2f: got %d, exact nearest-rank %d (err %.4f > bucket width)",
					trial, n, q, got, exact, relErr)
			}
		}
	}
}
