// Package seek implements disk seek-time models.
//
// Table 1 of "Adaptive Block Rearrangement Under UNIX" gives measured
// seek-time functions for the two disks used in the paper's experiments,
// each a piecewise curve of the form
//
//	seektime(d) = 0                                   if d == 0
//	seektime(d) = a + b·√d + c·∛d + e·ln d            if d < knee
//	seektime(d) = f + g·d                             if d ≥ knee
//
// where d is the seek distance in cylinders and the result is in
// milliseconds. The short-seek curve captures the acceleration phase of
// the disk arm; the long-seek curve is the linear coast phase.
package seek

import (
	"fmt"
	"math"
	"sort"
)

// Curve computes seek time in milliseconds from a distance in cylinders.
// Implementations must return 0 for d == 0 and a non-negative,
// monotonically non-decreasing value otherwise.
type Curve interface {
	// SeekMS returns the seek time in milliseconds for a head movement
	// of d cylinders. d may be negative; only |d| matters.
	SeekMS(d int) float64
}

// Piecewise is the two-part seek curve used in Table 1 of the paper.
type Piecewise struct {
	// Knee is the distance (in cylinders) at which the curve switches
	// from the short-seek to the long-seek form.
	Knee int
	// KneeInclusive selects whether a seek of exactly Knee cylinders
	// uses the long form (true, "d >= knee") or the short form
	// (false, "d <= knee" uses short up to and including Knee).
	KneeInclusive bool
	// A, B, C, E are the short-seek coefficients:
	// A + B·√d + C·∛d + E·ln d.
	A, B, C, E float64
	// F, G are the long-seek coefficients: F + G·d.
	F, G float64
}

// SeekMS implements Curve.
func (p Piecewise) SeekMS(d int) float64 {
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	fd := float64(d)
	long := d > p.Knee || (p.KneeInclusive && d == p.Knee)
	if long {
		return p.F + float64(p.G*fd)
	}
	return p.A + float64(p.B*math.Sqrt(fd)) + float64(p.C*math.Cbrt(fd)) + float64(p.E*math.Log(fd))
}

// String renders the curve in the notation of Table 1.
func (p Piecewise) String() string {
	cmp := "<="
	if p.KneeInclusive {
		cmp = "<"
	}
	return fmt.Sprintf("0 if d=0; %.3f%+.3f√d%+.3f∛d%+.3f·ln d if d%s%d; %.3f%+.4f·d otherwise",
		p.A, p.B, p.C, p.E, cmp, p.Knee, p.F, p.G)
}

// ToshibaMK156F is the measured seek-time function for the Toshiba
// MK156F 135 MB SCSI disk (Table 1, borrowed by the paper from Jobalia's
// thesis):
//
//	seektime(d) = 6.248 + 1.393√d − 0.99∛d + 0.813·ln d   if d < 315
//	seektime(d) = 17.503 + 0.03d                           if d ≥ 315
var ToshibaMK156F = Piecewise{
	Knee: 315, KneeInclusive: true,
	A: 6.248, B: 1.393, C: -0.99, E: 0.813,
	F: 17.503, G: 0.03,
}

// FujitsuM2266 is the seek-time function the authors derived for the
// Fujitsu M2266 1 GB SCSI disk (Table 1):
//
//	seektime(d) = 1.205 + 0.65√d − 0.734∛d + 0.659·ln d   if d ≤ 225
//	seektime(d) = 7.44 + 0.0114d                           if d > 225
var FujitsuM2266 = Piecewise{
	Knee: 225, KneeInclusive: false,
	A: 1.205, B: 0.65, C: -0.734, E: 0.659,
	F: 7.44, G: 0.0114,
}

// Linear is a simple affine seek curve useful for synthetic disks in
// tests: startup + perCyl·d, and 0 when d == 0.
type Linear struct {
	// StartupMS is the fixed arm start/settle cost in milliseconds.
	StartupMS float64
	// PerCylMS is the incremental cost per cylinder in milliseconds.
	PerCylMS float64
}

// SeekMS implements Curve.
func (l Linear) SeekMS(d int) float64 {
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	return l.StartupMS + float64(l.PerCylMS*float64(d))
}

// MeanMS returns the mean seek time of the curve over a distance
// distribution given as a histogram: hist[d] is the number of seeks of
// distance d. It returns 0 if the histogram is empty. The paper computes
// its reported seek times exactly this way, from measured seek-distance
// distributions and the Table 1 curves.
func MeanMS(c Curve, hist map[int]int64) float64 {
	// Sum in sorted key order so the floating-point result is exactly
	// reproducible (simulations promise bit-for-bit determinism).
	keys := make([]int, 0, len(hist))
	for d := range hist {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	var n int64
	var sum float64
	for _, d := range keys {
		cnt := hist[d]
		if cnt <= 0 {
			continue
		}
		n += cnt
		sum += float64(float64(cnt) * c.SeekMS(d))
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
