package tracein

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rig"
	"repro/internal/trace"
)

// Allocation regression tests for the steady-state replay path. The
// budget is no allocation per replayed request, read or write: the
// arrival cursor and closed-loop clients are sim.Caller values, the
// completion DoneFuncs live on pooled inflight slots, writes reuse one
// shared zero block, and a read is handed the page the device lends.
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

// ParseMSR parses a line in the scanner's buffer: once the scanner is
// built, a line costs no allocation. A parse of many lines allocates
// exactly what a parse of a few does.
func TestParseMSRZeroAllocsPerLine(t *testing.T) {
	lines := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")
		for i := 0; i < n; i++ {
			typ := "Read"
			if i%3 == 0 {
				typ = "Write"
			}
			fmt.Fprintf(&b, "%d,usr,%d,%s,%d,%d,%d\n", 128166372003061629+int64(i)*977, i%4, typ, int64(i)*24576, 4096+i%3*8192, 100+i)
		}
		return b.Bytes()
	}
	parse := func(in []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := ParseMSR(bytes.NewReader(in), Options{}, func(trace.Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := parse(lines(16)), parse(lines(4096))
	if many != few {
		t.Errorf("a parse of 4096 lines allocates %v, of 16 lines %v: %.4f allocs per line, want 0",
			many, few, (many-few)/(4096-16))
	}
}
