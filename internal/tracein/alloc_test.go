package tracein

import (
	"testing"

	"repro/internal/rig"
	"repro/internal/trace"
)

// Allocation regression tests for the steady-state replay path. The
// budget is no allocation per replayed request, read or write: the
// arrival cursor and closed-loop clients are sim.Caller values, the
// completion DoneFuncs live on pooled inflight slots, writes reuse one
// shared zero block, and the buffer a read delivers goes straight back
// to the pool the device's next read takes it from (driver.Recycle).
// What is measured is the replayer's fixed per-pass setup, amortized
// across the trace.

// replayAllocs measures allocations per replayed request for one full
// pass over n requests.
func replayAllocs(t *testing.T, n int, write bool, mode Mode) float64 {
	t.Helper()
	r := rig.MustNew(rig.Options{})
	blocks := r.PartitionBlocks(0)
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			// 30 ms apart: slower than the device's service time, so the
			// open-loop in-flight population (and the inflight pool) stays
			// at one.
			TimeMS: float64(i) * 30,
			Write:  write,
			Block:  (int64(i) * 977) % blocks,
		}
	}
	// Warm-up pass: grows the driver's pools and histogram buckets.
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{Mode: mode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(nil)
	r.Eng.Run()
	per := testing.AllocsPerRun(3, func() {
		rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{Mode: mode, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start(nil)
		r.Eng.Run()
	}) / float64(n)
	return per
}

func TestOpenLoopWriteAllocs(t *testing.T) {
	// Everything measured is per-pass setup amortized over 512 requests.
	if per := replayAllocs(t, 512, true, OpenLoop); per > 0.25 {
		t.Errorf("open-loop write replay: %.3f allocs/request, want <= 0.25", per)
	}
}

func TestOpenLoopReadAllocs(t *testing.T) {
	// The device's data buffer is handed back on completion.
	if per := replayAllocs(t, 512, false, OpenLoop); per > 0.25 {
		t.Errorf("open-loop read replay: %.3f allocs/request, want <= 0.25", per)
	}
}

func TestClosedLoopReadAllocs(t *testing.T) {
	if per := replayAllocs(t, 512, false, ClosedLoop); per > 0.25 {
		t.Errorf("closed-loop read replay: %.3f allocs/request, want <= 0.25", per)
	}
}

func TestClosedLoopWriteAllocs(t *testing.T) {
	if per := replayAllocs(t, 512, true, ClosedLoop); per > 0.25 {
		t.Errorf("closed-loop write replay: %.3f allocs/request, want <= 0.25", per)
	}
}
