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

import "fmt"

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
