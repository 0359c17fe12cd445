package driver

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// randomBlocks returns n seeded random blocks of partition 0.
func randomBlocks(drv *Driver, n int, seed uint64) []int64 {
	p, _ := drv.Label().Partition(0)
	rnd := sim.NewRand(seed)
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = rnd.Int63n(p.Size / 16)
	}
	return blocks
}

var queuedData = blockOf(0x5a)

// queued issues one write that occupies the device, then one write to
// each of blocks, which wait in the queue behind it. done(i) is the
// completion of the write to blocks[i].
func queued(drv *Driver, blocks []int64, done func(i int) DoneFunc) {
	drv.WriteBlock(0, 0, queuedData, nil)
	for i, blk := range blocks {
		drv.WriteBlock(0, blk, queuedData, done(i))
	}
}

// refPick states each policy on its own, as the least key over the
// queue with the earliest arrival among equals; up is SCAN's direction.
func refPick(policy string, up *bool, head int, cyls []int) int {
	best, bestKey := -1, 0
	consider := func(i, key int) {
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	for i, c := range cyls {
		switch policy {
		case "fcfs":
			consider(i, 0)
		case "sstf":
			consider(i, max(c-head, head-c))
		case "cscan": // ahead by distance, then wrapped to the lowest
			if c >= head {
				consider(i, c-head)
			} else {
				consider(i, 1<<20+c)
			}
		case "scan":
			if d := c - head; (*up && d >= 0) || (!*up && d <= 0) {
				consider(i, max(d, -d))
			}
		}
	}
	if best < 0 { // SCAN with nothing ahead: reverse
		*up = !*up
		return refPick(policy, up, head, cyls)
	}
	return best
}

// Under every policy, ~500 writes queued behind a busy device are
// served in the order the reference picker gives for the same queue
// and head positions: the queue and its cylinder slice stay in step
// through every removal from the middle.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for _, policy := range []string{"fcfs", "sstf", "scan", "cscan"} {
		t.Run(policy, func(t *testing.T) {
			eng, dsk, drv := newRig(t)
			drv.cfg.Sched, _ = sched.New(policy)
			blocks := randomBlocks(drv, 500, 7)
			cyls := make([]int, len(blocks))
			for i, blk := range blocks {
				cyls[i] = dsk.Geom().CylinderOf(physBlock(drv, blk))
			}
			var order, heads []int
			queued(drv, blocks, func(i int) DoneFunc {
				return func(_ []byte, err error) {
					if err != nil {
						t.Fatal(err)
					}
					order = append(order, i)
					heads = append(heads, dsk.HeadCylinder())
				}
			})
			head := dsk.HeadCylinder() // after the first write's seek
			eng.Run()
			if len(order) != len(cyls) {
				t.Fatalf("%d of %d writes completed", len(order), len(cyls))
			}
			ids := make([]int, len(cyls))
			for i := range ids {
				ids[i] = i
			}
			up := true
			for k, got := range order {
				j := refPick(policy, &up, head, cyls)
				if got != ids[j] {
					t.Fatalf("dispatch %d: served write %d, reference picks write %d (cyl %d) at head %d",
						k, got, ids[j], cyls[j], head)
				}
				ids = slices.Delete(ids, j, j+1)
				cyls = slices.Delete(cyls, j, j+1)
				head = heads[k]
			}
		})
	}
}

// A power loss with a queue fails the request in service and then
// every queued one in arrival order, each exactly once, and leaves the
// queue and its cylinder slice empty.
func TestCrashFailsQueueInArrivalOrder(t *testing.T) {
	for _, policy := range []string{"fcfs", "sstf", "scan", "cscan"} {
		t.Run(policy, func(t *testing.T) {
			// Op 1 is the write occupying the device; op 2, the first
			// pick from the queue, cuts power.
			eng, _, drv := newFaultRig(t, fault.Plan{CrashAfterOps: 2})
			drv.cfg.Sched, _ = sched.New(policy)
			const n = 64
			var failed []int
			queued(drv, randomBlocks(drv, n, 3), func(i int) DoneFunc {
				return func(_ []byte, err error) {
					if !errors.Is(err, fault.ErrCrash) {
						t.Errorf("write %d: %v, want a crash", i, err)
					}
					failed = append(failed, i)
				}
			})
			if got := drv.QueueLen(); got != n {
				t.Fatalf("QueueLen = %d before the crash, want %d", got, n)
			}
			eng.Run()
			if len(failed) != n {
				t.Fatalf("%d of %d queued writes failed: %v", len(failed), n, failed)
			}
			want := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if i != failed[0] {
					want = append(want, i)
				}
			}
			if !slices.Equal(failed[1:], want) {
				t.Errorf("after write %d in service, failed %v, want arrival order %v", failed[0], failed[1:], want)
			}
			if drv.QueueLen() != 0 || len(drv.qcyl) != 0 || drv.Outstanding() != 0 {
				t.Errorf("after the crash: QueueLen %d, %d queued cylinders, Outstanding %d; want 0, 0, 0",
					drv.QueueLen(), len(drv.qcyl), drv.Outstanding())
			}
		})
	}
}

// BenchmarkDispatchQueued queues depth writes behind a busy device and
// drains them; ns/dispatch is the cost of one request through the
// queue, the pick included.
func BenchmarkDispatchQueued(b *testing.B) {
	for _, depth := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng, _, drv := newRig(b)
			blocks := randomBlocks(drv, depth, 1)
			noop := func(int) DoneFunc { return nil }
			queued(drv, blocks, noop)
			eng.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				queued(drv, blocks, noop)
				eng.Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(depth+1)), "ns/dispatch")
		})
	}
}
