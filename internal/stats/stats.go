// Package stats provides the measurement primitives shared by the
// experiment harness: HDR-style log-bucketed latency histograms with
// percentile queries, CDFs, counters, and fixed-interval time series.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram is a log-bucketed histogram of time.Duration values offering
// ~1% relative precision across nanoseconds to minutes, with O(1) record.
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     float64
	min     int64
	max     int64
}

// bucketsPerOctave controls precision: 128 sub-buckets per power of two
// gives worst-case relative error of ~0.55%.
const bucketsPerOctave = 128

// numOctaves covers 1ns .. ~2^40ns (~18 minutes).
const numOctaves = 41

// floorSample is the histogram's domain floor in nanoseconds. The log
// buckets cannot represent values below 1ns, so every observation — in
// Record's clamp, in bucketIndex, and therefore in Min() — is clamped to
// this single floor. Zero and negative durations record as 1ns; callers
// that accumulate durations before recording (trace.Span.Add) clamp their
// own negative *increments* to zero, which is consistent: the floor applies
// to the observed total, not to each accumulation step.
const floorSample = 1

// clampSample applies the shared domain floor.
func clampSample(v int64) int64 {
	if v < floorSample {
		return floorSample
	}
	return v
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		buckets: make([]uint64, numOctaves*bucketsPerOctave),
		min:     math.MaxInt64,
	}
}

func bucketIndex(v int64) int {
	v = clampSample(v)
	exp := 63 - leadingZeros64(uint64(v))
	if exp >= numOctaves {
		exp = numOctaves - 1
	}
	var frac int64
	if exp > 0 {
		frac = ((v - (1 << uint(exp))) * bucketsPerOctave) >> uint(exp)
	}
	if frac >= bucketsPerOctave {
		frac = bucketsPerOctave - 1
	}
	return exp*bucketsPerOctave + int(frac)
}

func bucketLow(i int) int64 {
	exp := i / bucketsPerOctave
	frac := int64(i % bucketsPerOctave)
	base := int64(1) << uint(exp)
	return base + (base*frac)/bucketsPerOctave
}

func leadingZeros64(x uint64) int { return bits.LeadingZeros64(x) }

// Record adds one observation. Observations below the 1ns domain floor
// (zero or negative durations) are clamped to it, so Min(), the buckets and
// the quantiles all agree on what was recorded.
func (h *Histogram) Record(d time.Duration) {
	v := clampSample(int64(d))
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.count))
}

// Min returns the smallest observation after the domain-floor clamp —
// never below 1ns for a non-empty histogram (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the q-quantile (q in [0,1]), e.g. 0.5 for the median,
// 0.95 and 0.99 for tails. Precision is the bucket width (~1%).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			lo := bucketLow(i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return time.Duration(lo)
		}
	}
	return time.Duration(h.max)
}

// Median is Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// P95 is Quantile(0.95).
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Merge adds all observations from o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Summary renders "p50=… p95=… p99=… mean=… n=…" for logs.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("p50=%v p95=%v p99=%v mean=%v max=%v n=%d",
		h.Median().Round(100*time.Nanosecond),
		h.P95().Round(100*time.Nanosecond),
		h.P99().Round(100*time.Nanosecond),
		h.Mean().Round(100*time.Nanosecond),
		h.Max().Round(100*time.Nanosecond),
		h.count)
}

// CDF is an empirical cumulative distribution over float64 samples, used
// for the Fig. 5 size distributions.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= v). The upper bound over equal samples is found by a
// second binary search, so duplicate-heavy distributions (the Fig. 5 size
// CDFs are dominated by a handful of popular sizes) stay O(log n) instead
// of degrading to a linear scan across the run of equal values.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > v })
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-quantile of the samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	i := int(q * float64(len(c.samples)))
	if i >= len(c.samples) {
		i = len(c.samples) - 1
	}
	return c.samples[i]
}
