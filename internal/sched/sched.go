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
//
// A policy picks from the queue's target cylinders alone: a dense,
// arrival-ordered []int32 the driver keeps beside its queue, scanned
// once per pick with no interface call per entry.
package sched

import "fmt"

// Cylindered is anything with a target cylinder. Only (*SCAN).Pick
// still takes it.
type Cylindered interface {
	Cylinder() int
}

// Scheduler picks the next request to service from a pending queue.
// Implementations may keep state across calls (e.g. SCAN's sweep
// direction); a Scheduler instance must be used with a single queue.
type Scheduler interface {
	// Name returns the policy name (e.g. "scan").
	Name() string
	// Next returns the index within cyls of the request to service
	// next, given the current head cylinder. cyls holds the pending
	// requests' target cylinders in arrival order and is never empty;
	// among equally good requests the earliest arrival wins.
	Next(headCyl int, cyls []int32) int
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

// Next implements Scheduler.
func (FCFS) Next(int, []int32) int { return 0 }

// SSTF services the request with the shortest seek distance from the
// current head position, breaking ties in arrival order.
type SSTF struct{}

// Name implements Scheduler.
func (SSTF) Name() string { return "sstf" }

// Next implements Scheduler.
func (SSTF) Next(headCyl int, cyls []int32) int {
	head := int32(headCyl)
	best, bestDist := 0, abs(cyls[0]-head)
	for i, c := range cyls {
		if d := abs(c - head); d < bestDist {
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
	up      bool
	scratch []int32 // Pick's cylinder view, reused across calls
}

// NewSCAN returns a SCAN scheduler initially sweeping toward higher
// cylinders.
func NewSCAN() *SCAN { return &SCAN{up: true} }

// Name implements Scheduler.
func (s *SCAN) Name() string { return "scan" }

// Next implements Scheduler.
func (s *SCAN) Next(headCyl int, cyls []int32) int {
	if i := ahead(int32(headCyl), cyls, s.up); i >= 0 {
		return i
	}
	s.up = !s.up
	if i := ahead(int32(headCyl), cyls, s.up); i >= 0 {
		return i
	}
	return 0 // unreachable when cyls is non-empty
}

// Pick is Next over a queue of Cylindered values.
func (s *SCAN) Pick(headCyl int, pending []Cylindered) int {
	s.scratch = s.scratch[:0]
	for _, r := range pending {
		s.scratch = append(s.scratch, int32(r.Cylinder()))
	}
	return s.Next(headCyl, s.scratch)
}

// ahead returns the nearest request at or beyond head in the given
// direction, ties broken in arrival order, or -1 if none exists.
// Cylinders are non-negative int32s, so the distance c-head (head-c
// going down) is negative exactly when its uint32 is at least 1<<31:
// one unsigned compare against a best that starts there both skips the
// requests behind the head and keeps the nearest ahead.
func ahead(head int32, cyls []int32, up bool) int {
	best, bestDist := -1, uint32(1<<31)
	for i, c := range cyls {
		d := uint32(c - head)
		if !up {
			d = uint32(head - c)
		}
		if d < bestDist {
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

// Next implements Scheduler.
func (CSCAN) Next(headCyl int, cyls []int32) int {
	if i := ahead(int32(headCyl), cyls, true); i >= 0 {
		return i
	}
	lowest := 0
	for i, c := range cyls {
		if c < cyls[lowest] {
			lowest = i
		}
	}
	return lowest
}

func abs(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
