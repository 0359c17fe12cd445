package volume

import (
	"fmt"

	"repro/internal/driver"
)

// A balancer orders the live members a mirror read should try; the two
// policies are selected by Options.ReadPolicy. Order is called once per
// balanced read and must be deterministic: any state it keeps (cursors,
// histories) may only depend on the sequence of Order calls. It appends
// the member indices to try, best candidate first, to order and returns
// it; only live members may appear, and the caller passes a reused
// backing slice.
type balancer interface {
	Order(v *Volume, order []int) []int
}

// roundRobin rotates reads across live members in index order,
// starting one past the previous read's starting point.
type roundRobin struct {
	cursor int
}

func (b *roundRobin) Order(v *Volume, order []int) []int {
	n := len(v.Members)
	first := b.cursor % n
	b.cursor++
	for j := 0; j < n; j++ {
		i := (first + j) % n
		if !v.Members[i].Driver.Dead() {
			order = append(order, i)
		}
	}
	return order
}

// shortestQueue sends each read to the live member with the fewest
// requests queued or in service, breaking ties by member index.
type shortestQueue struct{}

func (shortestQueue) Order(v *Volume, order []int) []int {
	for i := range v.Members {
		if !v.Members[i].Driver.Dead() {
			order = append(order, i)
		}
	}
	// Sort by (outstanding requests, index): an insertion sort over
	// a handful of members, in place of sort.SliceStable and its
	// per-call closure allocation. The key is total, so the result
	// is the same.
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			qa := v.Members[order[b-1]].Driver.Outstanding()
			qb := v.Members[order[b]].Driver.Outstanding()
			if qa < qb || (qa == qb && order[b-1] < order[b]) {
				break
			}
			order[b-1], order[b] = order[b], order[b-1]
		}
	}
	return order
}

// newBalancer maps a ReadPolicy New has validated onto its balancer.
func newBalancer(p ReadPolicy) balancer {
	if p == ShortestQueue {
		return shortestQueue{}
	}
	return &roundRobin{}
}

// placement routes one logical-block request for a layout family. The
// three built-in families — linear (concat/stripe), mirrored, and
// parity (raid5/raid6) — all speak this interface, so the volume's
// entry points stay layout-blind. Implementations must never invoke done inside the
// routing call itself.
type placement interface {
	read(blk int64, done driver.DoneFunc)
	write(blk int64, data []byte, done driver.DoneFunc)
}

// linear is concat and stripe: every logical block lives on exactly
// one member, located by Volume.locate; there is no redundancy.
type linear struct{ v *Volume }

func (l linear) read(blk int64, done driver.DoneFunc) {
	v := l.v
	r := v.getReq()
	r.start = v.Eng.Now()
	r.done = done
	i, mblk := v.locate(blk)
	v.Members[i].Driver.ReadBlock(0, mblk, r.finishCB)
}

func (l linear) write(blk int64, data []byte, done driver.DoneFunc) {
	v := l.v
	r := v.getReq()
	r.start = v.Eng.Now()
	r.done = done
	i, mblk := v.locate(blk)
	v.Members[i].Driver.WriteBlock(0, mblk, data, r.finishCB)
}

// mirrored replicates every block on every member: reads pick one
// live member by the balancing policy and fail over on error, writes
// fan out to every live member and succeed if any replica does.
type mirrored struct{ v *Volume }

func (m mirrored) read(blk int64, done driver.DoneFunc) {
	v := m.v
	r := v.getReq()
	r.start = v.Eng.Now()
	r.done = done
	r.order = v.bal.Order(v, r.order[:0])
	if len(r.order) == 0 {
		v.putReq(r)
		v.fail(done, fmt.Errorf("volume: every mirror member is dead: %w", driver.ErrDead))
		return
	}
	if len(r.order) < len(v.Members) {
		v.degraded++
	}
	r.blk = blk
	i := r.order[0]
	v.Members[i].Driver.ReadBlock(0, blk, r.readCB)
}

func (m mirrored) write(blk int64, data []byte, done driver.DoneFunc) {
	v := m.v
	r := v.getReq()
	r.start = v.Eng.Now()
	r.done = done
	// targets is issue-time scratch only (no callback runs inside the
	// fan-out loop — completions are simulated-time events), so the
	// volume-level backing array is reused across requests.
	targets := v.targets[:0]
	for i := range v.Members {
		if !v.Members[i].Driver.Dead() {
			targets = append(targets, i)
		}
	}
	v.targets = targets
	if len(targets) == 0 {
		v.putReq(r)
		v.fail(done, fmt.Errorf("volume: every mirror member is dead: %w", driver.ErrDead))
		return
	}
	if len(targets) < len(v.Members) {
		v.degraded++
	}
	r.pending = len(targets)
	for _, i := range targets {
		// Members may not mutate or retain the buffer (the cache hands
		// its own copy to WriteThroughOwned under the same contract),
		// so all replicas share one data slice.
		v.Members[i].Driver.WriteBlock(0, blk, data, r.writeCB)
	}
}
