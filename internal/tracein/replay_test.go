package tracein

import (
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/trace"
)

// testTrace builds a deterministic trace over the rig's partition 0:
// n requests 5 ms apart walking a strided pattern, every third a write.
func testTrace(n int, blocks int64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			TimeMS: float64(i) * 5,
			Write:  i%3 == 2,
			Block:  (int64(i) * 977) % blocks,
		}
	}
	return recs
}

func TestOpenLoopReplay(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	recs := testTrace(200, r.PartitionBlocks(0))
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{Mode: OpenLoop})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	fired := false
	rep.Start(func(got Result) { res, fired = got, true })
	r.Eng.Run()
	if !fired {
		t.Fatal("done callback never fired")
	}
	if res.Completed != len(recs) || res.Errors != 0 {
		t.Fatalf("completed %d, errors %d; want %d, 0", res.Completed, res.Errors, len(recs))
	}
	// Open loop is timestamp-faithful: the last arrival is at 995 ms,
	// so the replay cannot finish before it.
	if res.ElapsedMS < recs[len(recs)-1].TimeMS {
		t.Errorf("elapsed %.1f ms, want >= %.1f", res.ElapsedMS, recs[len(recs)-1].TimeMS)
	}
	st := r.Driver.ReadStats()
	if got := st.ReadSide.Count() + st.WriteSide.Count(); got != int64(len(recs)) {
		t.Errorf("driver saw %d requests, want %d", got, len(recs))
	}
}

func TestClosedLoopReplay(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	recs := testTrace(200, r.PartitionBlocks(0))
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{
		Mode: ClosedLoop, Clients: 4, ThinkMS: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	fired := false
	rep.Start(func(got Result) { res, fired = got, true })
	r.Eng.Run()
	if !fired {
		t.Fatal("done callback never fired")
	}
	if res.Completed != len(recs) || res.Errors != 0 {
		t.Fatalf("completed %d, errors %d; want %d, 0", res.Completed, res.Errors, len(recs))
	}
	if res.ElapsedMS <= 0 {
		t.Errorf("elapsed %.1f ms, want > 0", res.ElapsedMS)
	}
}

// TestClosedLoopMoreClientsThanRecords pins the population clamp: a
// 3-record trace with 8 requested clients must still complete exactly
// once per record and fire done.
func TestClosedLoopMoreClientsThanRecords(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	recs := testTrace(3, r.PartitionBlocks(0))
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{Mode: ClosedLoop, Clients: 8})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	rep.Start(func(got Result) { res = got })
	r.Eng.Run()
	if res.Completed != 3 {
		t.Fatalf("completed %d, want 3", res.Completed)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	rep, err := NewReplayer(r.Eng, r.Driver, nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	rep.Start(func(got Result) { fired = got.Completed == 0 && got.Errors == 0 })
	r.Eng.Run()
	if !fired {
		t.Fatal("done callback never fired for the empty trace")
	}
}

// TestValidate pins the fail-fast contract: a trace that doesn't fit
// the device is rejected at construction with ErrOutOfRange, before a
// single event is scheduled.
func TestValidate(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	blocks := r.PartitionBlocks(0)
	for _, tc := range []struct {
		name string
		rec  trace.Record
	}{
		{"negative-part", trace.Record{Part: -1}},
		{"part-beyond-table", trace.Record{Part: 200}},
		{"unused-partition", trace.Record{Part: 5}},
		{"negative-block", trace.Record{Block: -1}},
		{"block-beyond-partition", trace.Record{Block: blocks}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReplayer(r.Eng, r.Driver, []trace.Record{tc.rec}, ReplayOptions{})
			if !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("got %v, want ErrOutOfRange", err)
			}
		})
	}
	// The last valid block is accepted.
	if _, err := NewReplayer(r.Eng, r.Driver, []trace.Record{{Block: blocks - 1}}, ReplayOptions{}); err != nil {
		t.Fatalf("last block rejected: %v", err)
	}
}

// TestReplayMetrics checks the metrics binding: the registry's
// replay_latency_ms is the replayer's own histogram, adopted, so its
// count is every finished request, and the lifetime counter matches.
func TestReplayMetrics(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	recs := testTrace(100, r.PartitionBlocks(0))
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rep.BindMetrics(reg)
	var res Result
	rep.Start(func(got Result) { res = got })
	r.Eng.Run()
	if reg.Histogram("replay_latency_ms", metrics.HistogramOpts{}) != rep.Latency() {
		t.Error("the registry holds a copy of the latency histogram, not the replayer's own")
	}
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case "replay_latency_ms":
			if want := int64(res.Completed + res.Errors); m.Hist.Count != want {
				t.Errorf("replay_latency_ms count %d, want completed+errors %d", m.Hist.Count, want)
			}
		case "replay_requests":
			if m.Value != float64(len(recs)) {
				t.Errorf("replay_requests %v, want %d", m.Value, len(recs))
			}
		}
	}
	if p99 := rep.Latency().Quantile(0.99); p99 <= 0 {
		t.Errorf("p99 latency %.3f ms, want > 0", p99)
	}
}

// TestReplayLatencyUnbound checks that the latency histogram records
// every request without BindMetrics: the experiment report's P99 reads
// it from runs that collect no metrics.
func TestReplayLatencyUnbound(t *testing.T) {
	r := rig.MustNew(rig.Options{})
	recs := testTrace(100, r.PartitionBlocks(0))
	rep, err := NewReplayer(r.Eng, r.Driver, recs, ReplayOptions{Mode: ClosedLoop})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(nil)
	r.Eng.Run()
	if h := rep.Latency(); h.Count() != int64(len(recs)) {
		t.Errorf("unbound histogram count %d, want %d", h.Count(), len(recs))
	}
}

// TestReplayScaledDeterminism locks the property the experiment golden
// depends on: replaying the same scaled, multiplexed trace twice on
// fresh rigs yields identical results and identical head travel.
func TestReplayScaledDeterminism(t *testing.T) {
	run := func() (Result, int64) {
		r := rig.MustNew(rig.Options{})
		blocks := r.PartitionBlocks(0)
		base := testTrace(100, blocks/8)
		scaled := Scale{Compress: 2, Copies: 4, ShiftBlocks: blocks / 8, WrapBlocks: blocks}.Apply(base)
		rep, err := NewReplayer(r.Eng, r.Driver, scaled, ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		rep.Start(func(got Result) { res = got })
		r.Eng.Run()
		return res, r.Disk.SeekCylinders()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 {
		t.Errorf("results differ across identical runs: %+v vs %+v", r1, r2)
	}
	if s1 != s2 {
		t.Errorf("head travel differs across identical runs: %d vs %d cylinders", s1, s2)
	}
	if r1.Completed != 400 {
		t.Errorf("completed %d, want 400 (100 records x 4 copies)", r1.Completed)
	}
}
