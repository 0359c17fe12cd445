// Package sched implements disk request scheduling (head scheduling)
// policies.
//
// The SunOS driver modified in the paper maintains a queue of
// outstanding requests per physical device and services them with a
// SCAN (elevator) policy; the paper's FCFS numbers are what the seek
// distances would have been had requests been served in arrival order
// (Section 5.2, Table 3). Both policies are implemented here, together
// with SSTF and C-SCAN for the scheduling-ablation benchmarks. Section
// 5.2 attributes part of the rearranged zero-seek rate to synergy
// between SCAN and the clustering of hot blocks; the ablation
// benchmarks quantify that claim.
package sched

import (
	"fmt"

	"repro/internal/metrics"
)

// Cylindered is anything with a target cylinder — the only property a
// head scheduler needs.
type Cylindered interface {
	Cylinder() int
}

// Scheduler picks the next request to service from a pending queue.
// Implementations may keep state across calls (e.g. SCAN's sweep
// direction); a Scheduler instance must be used with a single queue.
type Scheduler interface {
	// Name returns the policy name (e.g. "scan").
	Name() string
	// Pick returns the index within pending of the request to service
	// next, given the current head cylinder. pending is in arrival
	// order and is never empty.
	Pick(headCyl int, pending []Cylindered) int
}

// New returns a scheduler by policy name: "fcfs", "scan", "cscan" or
// "sstf".
func New(name string) (Scheduler, error) {
	switch name {
	case "fcfs":
		return FCFS{}, nil
	case "scan":
		return NewSCAN(), nil
	case "cscan":
		return CSCAN{}, nil
	case "sstf":
		return SSTF{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
}

// FCFS services requests strictly in arrival order.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler.
func (FCFS) Pick(_ int, _ []Cylindered) int { return 0 }

// SSTF services the request with the shortest seek distance from the
// current head position, breaking ties in arrival order.
type SSTF struct{}

// Name implements Scheduler.
func (SSTF) Name() string { return "sstf" }

// Pick implements Scheduler.
func (SSTF) Pick(headCyl int, pending []Cylindered) int {
	best, bestDist := 0, abs(pending[0].Cylinder()-headCyl)
	for i := 1; i < len(pending); i++ {
		if d := abs(pending[i].Cylinder() - headCyl); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// SCAN is the elevator policy: the head sweeps in one direction,
// servicing the nearest request ahead of it, and reverses when no
// requests remain in the direction of travel. This matches the SunOS
// driver's disksort behaviour described in the paper.
type SCAN struct {
	up bool
}

// NewSCAN returns a SCAN scheduler initially sweeping toward higher
// cylinders.
func NewSCAN() *SCAN { return &SCAN{up: true} }

// Name implements Scheduler.
func (s *SCAN) Name() string { return "scan" }

// Pick implements Scheduler.
func (s *SCAN) Pick(headCyl int, pending []Cylindered) int {
	if i := s.pickDir(headCyl, pending, s.up); i >= 0 {
		return i
	}
	s.up = !s.up
	if i := s.pickDir(headCyl, pending, s.up); i >= 0 {
		return i
	}
	return 0 // unreachable when pending is non-empty
}

// pickDir returns the nearest request at or beyond headCyl in the given
// direction, ties broken in arrival order, or -1 if none exists.
func (s *SCAN) pickDir(headCyl int, pending []Cylindered, up bool) int {
	best, bestDist := -1, 0
	for i, r := range pending {
		c := r.Cylinder()
		var d int
		if up {
			d = c - headCyl
		} else {
			d = headCyl - c
		}
		if d < 0 {
			continue
		}
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// CSCAN is the circular SCAN policy: the head sweeps only toward higher
// cylinders and jumps back to the lowest pending request when nothing
// remains ahead.
type CSCAN struct{}

// Name implements Scheduler.
func (CSCAN) Name() string { return "cscan" }

// Pick implements Scheduler.
func (CSCAN) Pick(headCyl int, pending []Cylindered) int {
	best, bestCyl := -1, 0
	lowest, lowestCyl := 0, pending[0].Cylinder()
	for i, r := range pending {
		c := r.Cylinder()
		if c < lowestCyl {
			lowest, lowestCyl = i, c
		}
		if c >= headCyl && (best == -1 || c < bestCyl) {
			best, bestCyl = i, c
		}
	}
	if best >= 0 {
		return best
	}
	return lowest
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Counting wraps a Scheduler and counts its dispatch decisions — how
// many picks it made and how long the pending queue was at each pick.
// The wrapped policy's choices are unchanged, so instrumenting a run
// cannot perturb it. BindMetrics exposes the counts.
type Counting struct {
	inner  Scheduler
	picks  int64
	queued int64 // sum of pending-queue lengths at pick time
	hist   *metrics.Histogram
}

// NewCounting returns a counting wrapper around inner.
func NewCounting(inner Scheduler) *Counting { return &Counting{inner: inner} }

// Name implements Scheduler, passing the wrapped policy's name through.
func (c *Counting) Name() string { return c.inner.Name() }

// Pick implements Scheduler.
func (c *Counting) Pick(headCyl int, pending []Cylindered) int {
	c.picks++
	c.queued += int64(len(pending))
	if c.hist != nil {
		c.hist.Record(float64(len(pending)))
	}
	return c.inner.Pick(headCyl, pending)
}

// BindMetrics registers the pending-queue-length distribution in reg —
// one observation per dispatch decision from the moment of binding —
// and the MeanQueue gauge, over every pick. Queue lengths are small
// integers, so the histogram uses single-unit precision at the bottom
// of its range.
func (c *Counting) BindMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	c.hist = reg.Histogram("sched_queue_len", metrics.HistogramOpts{MinExp: -1, MaxExp: 20}, labels...)
	reg.GaugeFunc("sched_mean_queue_len", c.MeanQueue, labels...)
}

// MeanQueue returns the mean pending-queue length over all picks.
func (c *Counting) MeanQueue() float64 {
	if c.picks == 0 {
		return 0
	}
	return float64(c.queued) / float64(c.picks)
}
