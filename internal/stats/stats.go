// Package stats implements the measurement machinery of the adaptive
// driver (Section 4.1.5 of "Adaptive Block Rearrangement Under UNIX").
//
// The driver in the paper records, separately for reads and writes:
//
//   - seek-distance distributions, both in arrival (FCFS) order and in
//     scheduled order;
//   - service-time and queueing-time distributions at one-millisecond
//     resolution;
//   - cumulative service and queueing times at the full (microsecond)
//     resolution of the underlying measurements.
//
// This package provides those histograms plus the summaries the paper's
// tables are built from (daily means, min/avg/max over days, CDFs).
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/seek"
)

// TimeHist is a distribution of times. Samples are bucketed at
// one-millisecond resolution, while the count and cumulative sum are kept
// at full resolution, exactly as in the paper's driver.
type TimeHist struct {
	buckets []int64 // buckets[i] counts samples with floor(ms) == i
	over    int64   // samples beyond the last bucket
	maxMS   int     // number of 1 ms buckets
	count   int64
	sumMS   float64 // full-resolution cumulative time
}

// NewTimeHist returns a TimeHist covering [0, maxMS) milliseconds at
// 1 ms resolution; samples at or beyond maxMS are counted in an overflow
// bucket (their exact values still contribute to the mean).
func NewTimeHist(maxMS int) *TimeHist {
	if maxMS <= 0 {
		maxMS = 1
	}
	return &TimeHist{buckets: make([]int64, maxMS), maxMS: maxMS}
}

// Add records one sample, in milliseconds.
func (h *TimeHist) Add(ms float64) {
	if ms < 0 {
		ms = 0
	}
	h.count++
	h.sumMS += ms
	i := int(ms)
	if i >= h.maxMS {
		h.over++
		return
	}
	h.buckets[i]++
}

// Count returns the number of samples recorded.
func (h *TimeHist) Count() int64 { return h.count }

// SumMS returns the full-resolution cumulative time in milliseconds.
func (h *TimeHist) SumMS() float64 { return h.sumMS }

// MeanMS returns the full-resolution mean in milliseconds, or 0 when the
// histogram is empty.
func (h *TimeHist) MeanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sumMS / float64(h.count)
}

// FracBelow returns the fraction of samples strictly below ms
// (at bucket resolution).
func (h *TimeHist) FracBelow(ms float64) float64 {
	if h.count == 0 {
		return 0
	}
	limit := int(ms)
	if limit > h.maxMS {
		limit = h.maxMS
	}
	var n int64
	for i := 0; i < limit; i++ {
		n += h.buckets[i]
	}
	return float64(n) / float64(h.count)
}

// CDFPoint is one point of a cumulative distribution: the fraction of
// samples at or below X.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the cumulative distribution at 1 ms resolution, up to and
// including the first bucket at which the cumulative fraction reaches 1
// (or the overflow boundary). The result is empty for an empty histogram.
func (h *TimeHist) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, h.maxMS)
	var cum int64
	for i := 0; i < h.maxMS; i++ {
		cum += h.buckets[i]
		out = append(out, CDFPoint{X: float64(i + 1), Frac: float64(cum) / float64(h.count)})
		if cum == h.count {
			break
		}
	}
	return out
}

// Quantile returns the smallest millisecond bucket boundary at or below
// which at least fraction p of the samples fall. Overflow samples are
// reported as maxMS.
func (h *TimeHist) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	need := int64(math.Ceil(p * float64(h.count)))
	var cum int64
	for i := 0; i < h.maxMS; i++ {
		cum += h.buckets[i]
		if cum >= need {
			return float64(i + 1)
		}
	}
	return float64(h.maxMS)
}

// Merge adds all samples of other into h. The histograms must have the
// same bucket range.
func (h *TimeHist) Merge(other *TimeHist) error {
	if other == nil {
		return nil
	}
	if h.maxMS != other.maxMS {
		return fmt.Errorf("stats: merging TimeHists with different ranges (%d vs %d ms)", h.maxMS, other.maxMS)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.over += other.over
	h.count += other.count
	h.sumMS += other.sumMS
	return nil
}

// Reset clears the histogram.
func (h *TimeHist) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.over, h.count, h.sumMS = 0, 0, 0
}

// DistHist is a seek-distance distribution: counts of seeks by distance
// in cylinders. The counts are dense, indexed by distance: a distance is
// bounded by the disk's cylinder count, so the slice stops growing after
// the first long seeks and Add is an indexed increment.
type DistHist struct {
	counts []int64 // counts[d] seeks of d cylinders
	n      int64
	sum    int64
}

// NewDistHist returns an empty seek-distance histogram.
func NewDistHist() *DistHist { return &DistHist{} }

// Add records one seek of distance d cylinders (|d| is used).
func (h *DistHist) Add(d int) {
	if d < 0 {
		d = -d
	}
	if d >= len(h.counts) {
		h.grow(d + 1)
	}
	h.counts[d]++
	h.n++
	h.sum += int64(d)
}

// grow extends counts to n distances, keeping Add's common path small.
func (h *DistHist) grow(n int) {
	h.counts = append(h.counts, make([]int64, n-len(h.counts))...)
}

// Count returns the number of seeks recorded.
func (h *DistHist) Count() int64 { return h.n }

// MeanDist returns the mean seek distance in cylinders.
func (h *DistHist) MeanDist() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// ZeroFrac returns the fraction of zero-length seeks.
func (h *DistHist) ZeroFrac() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.counts[0]) / float64(h.n)
}

// MeanSeekMS applies a seek-time curve to the distance distribution and
// returns the mean seek time in milliseconds. This is how the paper
// derives all of its reported seek times (Section 5.2). The sum runs in
// ascending distance order, so the result is reproducible to the bit.
func (h *DistHist) MeanSeekMS(c seek.Curve) float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for d, cnt := range h.counts {
		if cnt > 0 {
			sum += float64(float64(cnt) * c.SeekMS(d))
		}
	}
	return sum / float64(h.n)
}

// Histogram returns a copy of the raw distance counts, one key per
// distance seen.
func (h *DistHist) Histogram() map[int]int64 {
	out := make(map[int]int64)
	for d, c := range h.counts {
		if c > 0 {
			out[d] = c
		}
	}
	return out
}

// Merge adds all seeks of other into h.
func (h *DistHist) Merge(other *DistHist) {
	if other == nil {
		return
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for d, c := range other.counts {
		h.counts[d] += c
	}
	h.n += other.n
	h.sum += other.sum
}

// Reset clears the histogram, keeping its capacity.
func (h *DistHist) Reset() {
	clear(h.counts)
	h.n, h.sum = 0, 0
}

// Summary aggregates a series of per-day values into the min/avg/max
// triples reported in the paper's tables ("daily mean ...").
type Summary struct {
	vals []float64
}

// Add appends one daily value.
func (s *Summary) Add(v float64) { s.vals = append(s.vals, v) }

// N returns the number of values added.
func (s *Summary) N() int { return len(s.vals) }

// Min returns the smallest value, or 0 when empty.
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value, or 0 when empty.
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Avg returns the mean value, or 0 when empty.
func (s *Summary) Avg() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Values returns a sorted copy of the values.
func (s *Summary) Values() []float64 {
	out := append([]float64(nil), s.vals...)
	sort.Float64s(out)
	return out
}

// String renders the summary as "min/avg/max" with two decimals, the
// format of the paper's on/off tables.
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f/%.2f/%.2f", s.Min(), s.Avg(), s.Max())
}
