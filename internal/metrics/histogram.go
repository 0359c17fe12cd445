package metrics

import (
	"fmt"
	"math"
)

// bias is the IEEE 754 float64 exponent bias.
const bias = 1023

// HistogramOpts parameterizes a log-linear histogram.
type HistogramOpts struct {
	// SubBits is the number of mantissa bits used for sub-bucketing:
	// every power-of-two range is split into 2^SubBits equal-width
	// buckets, bounding the relative quantile error at 2^-SubBits.
	// Zero selects 5 (32 sub-buckets per octave, ≤ 3.2% error);
	// clamped to [1, 8].
	SubBits int
	// MinExp and MaxExp bound the tracked range [2^MinExp, 2^MaxExp):
	// smaller values (including zero and negatives) land in the
	// underflow bucket and report as ≤ 2^MinExp, larger values in the
	// overflow bucket and report as the exact observed max. Both zero
	// selects [-10, 30] — for millisecond latencies, ~1 µs to ~12
	// simulated days.
	MinExp, MaxExp int
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.SubBits == 0 {
		o.SubBits = 5
	}
	if o.SubBits < 1 {
		o.SubBits = 1
	}
	if o.SubBits > 8 {
		o.SubBits = 8
	}
	if o.MinExp == 0 && o.MaxExp == 0 {
		o.MinExp, o.MaxExp = -10, 30
	}
	// Keep 2^MinExp a normal float and 2^MaxExp finite.
	if o.MinExp < -1022 {
		o.MinExp = -1022
	}
	if o.MaxExp > 1023 {
		o.MaxExp = 1023
	}
	if o.MaxExp <= o.MinExp {
		o.MaxExp = o.MinExp + 1
	}
	return o
}

// Histogram is a log-linear (HDR-style) histogram over positive
// float64 values. Bucket index is computed from the raw float64 bits —
// biased exponent plus the top SubBits mantissa bits — so boundaries
// are exact and reconstruction is bit-identical on every platform.
// Record never allocates. Not safe for concurrent use.
type Histogram struct {
	subBits        int
	subCount       int
	minExp, maxExp int
	expLo          int // biased exponent of minVal
	minVal, maxVal float64

	count    int64
	sum      float64
	min, max float64
	buckets  []int64 // [underflow, octaves × subCount, overflow]
}

// NewHistogram returns a histogram with the given bucket layout. All
// buckets are allocated up front so Record is allocation-free.
func NewHistogram(o HistogramOpts) *Histogram {
	o = o.withDefaults()
	h := &Histogram{
		subBits:  o.SubBits,
		subCount: 1 << o.SubBits,
		minExp:   o.MinExp,
		maxExp:   o.MaxExp,
		expLo:    bias + o.MinExp,
		minVal:   math.Ldexp(1, o.MinExp),
		maxVal:   math.Ldexp(1, o.MaxExp),
	}
	h.buckets = make([]int64, 2+(o.MaxExp-o.MinExp)<<o.SubBits)
	return h
}

// Record adds one observation. It never allocates.
func (h *Histogram) Record(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[h.index(v)]++
}

// index maps a value to its bucket. The negated comparison routes NaN,
// zero and negatives to the underflow bucket.
func (h *Histogram) index(v float64) int {
	if !(v >= h.minVal) {
		return 0
	}
	if v >= h.maxVal {
		return len(h.buckets) - 1
	}
	bits := math.Float64bits(v)
	exp := int(bits >> 52)
	sub := int(bits>>(52-uint(h.subBits))) & (h.subCount - 1)
	return 1 + (exp-h.expLo)<<uint(h.subBits) + sub
}

// upperBound returns the exclusive upper boundary of bucket i.
func (h *Histogram) upperBound(i int) float64 {
	return bucketUpper(h.subBits, h.minExp, h.maxExp, i)
}

// bucketUpper reconstructs the exclusive upper boundary of bucket i for
// the given layout. The boundary's bits are assembled directly — the
// integer add carries a full sub-bucket wrap into the exponent field —
// so the result is exact by construction.
func bucketUpper(subBits, minExp, maxExp, i int) float64 {
	last := 1 + (maxExp-minExp)<<uint(subBits)
	switch {
	case i <= 0:
		return math.Ldexp(1, minExp)
	case i >= last:
		return math.Inf(1)
	}
	k := i - 1
	exp := uint64(bias+minExp) + uint64(k>>uint(subBits))
	sub := uint64(k & (1<<uint(subBits) - 1))
	return math.Float64frombits(exp<<52 + (sub+1)<<uint(52-subBits))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact running sum of recorded values. Because every
// run replays the same record order, the floating-point sum is itself
// deterministic.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest recorded value, 0 if none.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, 0 if none.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean, 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1): the
// boundary of the bucket holding the ceil(q·count)-th smallest value,
// clamped to the exact observed max. The estimate is within 2^-SubBits
// relative error of the true order statistic.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	need := quantileRank(q, h.count)
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= need {
			if ub := h.upperBound(i); ub < h.max {
				return ub
			}
			return h.max
		}
	}
	return h.max
}

// CountBelow returns the number of observations in the buckets that lie
// wholly below x. When x is a bucket boundary at or above 2^MinExp it is
// exact: the number of recorded values v < x. With SubBits s the
// boundaries in [2^e, 2^(e+1)) are the multiples of 2^(e-s), so with
// SubBits 6 every whole number up to 128 is one.
func (h *Histogram) CountBelow(x float64) int64 {
	var n int64
	for i, c := range h.buckets {
		if h.upperBound(i) > x {
			break
		}
		n += c
	}
	return n
}

// quantileRank converts a quantile to a 1-based rank among count
// observations.
func quantileRank(q float64, count int64) int64 {
	need := int64(math.Ceil(q * float64(count)))
	if need < 1 {
		need = 1
	}
	if need > count {
		need = count
	}
	return need
}

// Merge folds other into h bucket-wise. The two histograms must share a
// bucket layout. Merging in a fixed order (job order, member index
// order) keeps the merged sum deterministic.
func (h *Histogram) Merge(other *Histogram) error {
	if other.subBits != h.subBits || other.minExp != h.minExp || other.maxExp != h.maxExp {
		return fmt.Errorf("metrics: merging incompatible histograms: sub_bits %d/%d exp [%d,%d]/[%d,%d]",
			h.subBits, other.subBits, h.minExp, h.maxExp, other.minExp, other.maxExp)
	}
	if other.count == 0 {
		return nil
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, n := range other.buckets {
		if n != 0 {
			h.buckets[i] += n
		}
	}
	return nil
}

// snapshot renders the histogram as pure data with sparse buckets.
func (h *Histogram) snapshot() *HistSnap {
	s := &HistSnap{
		SubBits: h.subBits,
		MinExp:  h.minExp,
		MaxExp:  h.maxExp,
		Count:   h.count,
		Sum:     h.sum,
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	for i, n := range h.buckets {
		if n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
		}
	}
	return s
}
