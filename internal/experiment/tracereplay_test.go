package experiment

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
)

// TestTraceReplayEvidence runs the trace-replay matrix once and asserts
// what the experiment exists to show: the captured trace replays to
// completion in both loop modes, the scaled rows multiply the load, and
// rearrangement moves blocks and cuts the mean seek on the replayed
// trace. Each off row is its rearranged run's learning pass.
func TestTraceReplayEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-replay matrix simulation in -short mode")
	}
	rs, err := Gather(context.Background(), []Need{NeedTrace},
		Options{WindowMS: 15 * 60 * 1000}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runs := rs.Runs(NeedTrace)
	byCfg := make(map[string]*Run, len(runs))
	for _, p := range runs {
		byCfg[p.Experiment.Name] = p
	}
	// get returns the on row of cfg and, read from its learning pass, the
	// off row.
	get := func(cfg string) (off, on *TracePoint) {
		p, ok := byCfg[cfg+"-rearr"]
		if !ok {
			t.Fatalf("matrix has no %q row (got %d rows)", cfg+"-rearr", len(runs))
		}
		if p.Off == nil || p.Off.Experiment.Rearrange != nil || p.Off.installed() != 0 {
			t.Fatalf("%s-rearr: off twin %+v, want a learning pass with no rearranger", cfg, p.Off)
		}
		return p.Off.Replay, p.Replay
	}

	base, _ := get("open-1x")
	if base.Records == 0 || base.Errors != 0 {
		t.Fatalf("open-1x: Records = %d, Errors = %d, want load and no errors", base.Records, base.Errors)
	}
	if base.P99MS <= 0 || base.FCFSSeekMS <= 0 {
		t.Errorf("open-1x: P99MS = %v, FCFSSeekMS = %v, want both > 0", base.P99MS, base.FCFSSeekMS)
	}

	// Closed loop replays the same records paced by think time.
	if cl, _ := get("closed-1x"); cl.Records != base.Records || cl.Errors != 0 {
		t.Errorf("closed-1x: Records = %d, Errors = %d, want %d and 0", cl.Records, cl.Errors, base.Records)
	}

	// The scaled row multiplexes 4 copies over a 4-disk stripe.
	if sc, _ := get("open-4x-stripe4"); sc.Records != 4*base.Records {
		t.Errorf("open-4x-stripe4: Records = %d, want %d (4 copies)", sc.Records, 4*base.Records)
	}
	if d := byCfg["open-4x-stripe4-rearr"].Off.Experiment.Devices; d.Disks != 4 {
		t.Errorf("open-4x-stripe4: Disks = %d, want 4", d.Disks)
	}

	// Rearrangement on the replayed trace: blocks moved, seeks cut —
	// the paper's claim, demonstrated on trace-driven load.
	for _, cfg := range []string{"open-1x", "open-4x-stripe4"} {
		off, on := get(cfg)
		if byCfg[cfg+"-rearr"].installed() == 0 {
			t.Errorf("%s-rearr: Installed = 0, want > 0", cfg)
		}
		if on.SeekMS >= off.SeekMS {
			t.Errorf("%s: rearranged seek %.3f ms, want < baseline %.3f ms", cfg, on.SeekMS, off.SeekMS)
		}
		if on.SeekRedPct <= off.SeekRedPct {
			t.Errorf("%s: rearranged reduction %.1f%%, want > baseline %.1f%%", cfg, on.SeekRedPct, off.SeekRedPct)
		}
	}
}

// TestTraceConfigsCustomRow pins the flag collapse: any of the replay
// flags reduces the matrix to one custom rearranging row, its learning
// pass the off row, carrying the CLI settings, while all-unset
// reproduces the committed three-row matrix.
func TestTraceConfigsCustomRow(t *testing.T) {
	o := equivOptions()
	if got := traceConfigs(o); len(got) != 3 {
		t.Fatalf("default matrix: %d rows, want 3", len(got))
	}

	o.TraceIn = "testdata/some.trace"
	o.ReplayMode = "closed"
	o.TraceScale = 4
	o.TraceShift = 1000
	rows := traceConfigs(o)
	if len(rows) != 1 {
		t.Fatalf("flag matrix: %d rows, want 1", len(rows))
	}
	s := rows[0]
	if s.Name != "custom-rearr" || s.Rearrange == nil {
		t.Errorf("want the rearranging custom-rearr row, got %q with %v", s.Name, s.Rearrange)
	}
	if w := s.Workload; w.TracePath != o.TraceIn || w.Mode != tracein.ClosedLoop {
		t.Errorf("custom row dropped -trace-in/-replay-mode: %+v", w)
	}
	if w := s.Workload; w.Copies != 4 || w.ShiftBlocks != 1000 {
		t.Errorf("custom row dropped -trace-scale/-trace-shift: %+v", w)
	}
	if d := s.Devices; d.Layout != volume.Stripe || d.Disks != 4 {
		t.Errorf("scaled custom row: layout %v disks %d, want stripe/4", d.Layout, d.Disks)
	}

	// A bare -replay-mode still collapses, on a single disk.
	o = equivOptions()
	o.ReplayMode = "closed"
	rows = traceConfigs(o)
	if len(rows) != 1 {
		t.Fatalf("bare -replay-mode: %d rows, want 1", len(rows))
	}
	if s, err := rows[0].withDefaults(); err != nil || s.Devices.Disks != 1 || s.Devices.Layout != volume.Concat {
		t.Fatalf("bare -replay-mode: want a concat-1 row, got %+v, %v", s.Devices, err)
	}
}

// replayOn replays the system workload's 0.2-hour capture on the given
// devices, rearranging as asked.
func replayOn(t *testing.T, d Devices, rearrange *Rearrange) *Run {
	t.Helper()
	r, err := Execute(context.Background(), Experiment{
		Devices:   d,
		Workload:  Workload{Source: Trace},
		Rearrange: rearrange,
		WindowMS:  0.2 * workload.HourMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(r.Installed); len(r.Days) != want {
		t.Fatalf("layout %q, rearrange %v: %d replay passes, want %d", d.Layout, rearrange, len(r.Days), want)
	}
	return r
}

// TestBareDiskEqualsOneMemberVolume: a volume of one member adds
// nothing to a run. The same experiment on the bare disk, on a 1-member
// concat and on a 1-member stripe measures bit for bit the same in every
// window, installs the same blocks and counts the same workload errors:
// a captured trace replayed with no rearranger and with one rearranging
// 100 blocks after its learning pass, and the system and users file
// systems over an off day and an on day. And a learning pass measures
// what a plain replay does.
func TestBareDiskEqualsOneMemberVolume(t *testing.T) {
	fsDays := func(src Source) func(Devices) *Run {
		return func(d Devices) *Run {
			r, err := Execute(context.Background(), Experiment{
				Devices:   d,
				Workload:  Workload{Source: src},
				Rearrange: &Rearrange{},
				Days:      2,
				WindowMS:  0.1 * workload.HourMS,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	var plain *Run
	inputs := []struct {
		name string
		run  func(Devices) *Run
		// bare checks the bare disk's run on its own.
		bare func(*Run)
	}{
		{"trace", func(d Devices) *Run { return replayOn(t, d, nil) }, func(r *Run) { plain = r }},
		{"trace, rearranging 100 blocks", func(d Devices) *Run { return replayOn(t, d, &Rearrange{Blocks: 100}) }, func(r *Run) {
			if !reflect.DeepEqual(r.Installed, []int{100}) {
				t.Fatalf("installed %v, want [100]", r.Installed)
			}
			if !reflect.DeepEqual(r.Days[0], plain.Days[0]) {
				t.Errorf("the learning pass measured %+v, a plain replay %+v",
					r.Days[0].Metrics(r.Curve, AllRequests), plain.Days[0].Metrics(r.Curve, AllRequests))
			}
		}},
		{"system", fsDays(System), nil},
		{"users", fsDays(Users), nil},
	}
	for _, in := range inputs {
		var want *Run
		for _, d := range []Devices{{}, {Layout: volume.Concat}, {Layout: volume.Stripe, Disks: 1}} {
			r := in.run(d)
			if want == nil {
				want = r
				if p := r.Replay; p != nil && (p.Errors != 0 || p.SeekMS <= 0 || p.SeekMS >= p.FCFSSeekMS) {
					t.Fatalf("%s on the bare disk: %+v, want a clean replay that SCAN improves on", in.name, p)
				}
				if r.Replay == nil {
					off := r.Days[0].Metrics(r.Curve, AllRequests)
					on := r.Days[1].Metrics(r.Curve, AllRequests)
					if len(r.Installed) != 1 || r.WorkloadErrors != 0 || on.SeekMS >= off.SeekMS {
						t.Fatalf("%s on the bare disk: installed %v, %d errors, seek %.3f -> %.3f ms; want one clean rearrangement that cuts the seek",
							in.name, r.Installed, r.WorkloadErrors, off.SeekMS, on.SeekMS)
					}
				}
				if in.bare != nil {
					in.bare(r)
				}
				continue
			}
			if len(r.Days) != len(want.Days) {
				t.Fatalf("%s, layout %q of %d: %d windows, bare disk %d", in.name, d.Layout, d.Disks, len(r.Days), len(want.Days))
			}
			for i := range r.Days {
				if !reflect.DeepEqual(r.Days[i], want.Days[i]) {
					t.Errorf("%s, layout %q of %d, window %d: measured %+v; bare disk %+v",
						in.name, d.Layout, d.Disks, i, r.Days[i].Metrics(r.Curve, AllRequests), want.Days[i].Metrics(r.Curve, AllRequests))
				}
			}
			if !reflect.DeepEqual(r.Installed, want.Installed) || r.WorkloadErrors != want.WorkloadErrors {
				t.Errorf("%s, layout %q of %d: installed %v, %d workload errors; bare disk %v, %d",
					in.name, d.Layout, d.Disks, r.Installed, r.WorkloadErrors, want.Installed, want.WorkloadErrors)
			}
			if r.Replay == nil {
				continue
			}
			figures := func(r *Run) [4]uint64 {
				p := r.Replay
				return [4]uint64{math.Float64bits(p.FCFSSeekMS), math.Float64bits(p.SeekMS),
					math.Float64bits(p.P99MS), math.Float64bits(p.ElapsedMS)}
			}
			if figures(r) != figures(want) {
				t.Errorf("%s, layout %q of %d: FCFS seek %v, seek %v, p99 %v, elapsed %v ms; bare disk %v, %v, %v, %v ms",
					in.name, d.Layout, d.Disks, r.Replay.FCFSSeekMS, r.Replay.SeekMS, r.Replay.P99MS, r.Replay.ElapsedMS,
					want.Replay.FCFSSeekMS, want.Replay.SeekMS, want.Replay.P99MS, want.Replay.ElapsedMS)
			}
		}
	}
}

// TestMirrorWritesTwiceReadsOnce: a healthy 2-member mirror serves each
// read from one member and each write on both. Replaying one captured
// trace on it and on the bare disk, its merged statistics count the
// bare disk's reads once and its writes twice, in every pass, with and
// without a rearranger.
func TestMirrorWritesTwiceReadsOnce(t *testing.T) {
	for _, rearrange := range []*Rearrange{nil, {Blocks: 100}} {
		bare := replayOn(t, Devices{}, rearrange)
		mirror := replayOn(t, Devices{Layout: volume.Mirror, Disks: 2}, rearrange)
		if len(mirror.Days) != len(bare.Days) {
			t.Fatalf("rearrange %v: mirror replayed %d passes, bare disk %d", rearrange, len(mirror.Days), len(bare.Days))
		}
		for i, d := range bare.Days {
			b, m := d.Stats, mirror.Days[i].Stats
			if b.WriteSide.Count() == 0 || b.ReadSide.Count() == 0 {
				t.Fatalf("rearrange %v, pass %d: the bare disk saw %d reads and %d writes, want both",
					rearrange, i, b.ReadSide.Count(), b.WriteSide.Count())
			}
			if m.ReadSide.Count() != b.ReadSide.Count() || m.WriteSide.Count() != 2*b.WriteSide.Count() {
				t.Errorf("rearrange %v, pass %d: mirror %d reads, %d writes; bare disk %d reads, %d writes",
					rearrange, i, m.ReadSide.Count(), m.WriteSide.Count(), b.ReadSide.Count(), b.WriteSide.Count())
			}
		}
	}
}

// TestMeasuredPassKeepsNoTable: a rearranging replay's analyzers close
// once the night after the learning pass is over, so no member keeps a
// request table through the measured pass. Afterwards every member
// driver reports no table and nothing missed, and the analyzers hold
// exactly the learning pass's references: a table that had recorded
// the measured pass would have doubled them when Close drained it. The
// stack is Execute's for the trace-replay matrix's 4-disk stripe, run
// through measureReplay so that its members can be read; the
// rearrangers' lists are long enough to return every counted block.
func TestMeasuredPassKeepsNoTable(t *testing.T) {
	ctx := context.Background()
	e, err := Experiment{Name: "open-4x-stripe4", Devices: Devices{Layout: volume.Stripe, Disks: 4, StripeUnit: 16},
		Workload:  Workload{Source: Trace, Mode: tracein.OpenLoop, Copies: 4},
		Rearrange: &Rearrange{Blocks: 1 << 20}, WindowMS: 0.1 * workload.HourMS}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := e.stackSpec()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := e.sourceTrace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.finish()
	run := &Run{Experiment: e, Curve: e.model.Seek, Volume: &VolumePoint{}}
	if err := st.measureReplay(run, recs); err != nil {
		t.Fatal(err)
	}
	var counted int64
	for i, m := range st.members {
		sectors, missed := m.Driver.ReadRequestTable()
		if n := m.Driver.RequestTableSize(); n != 0 || sectors != nil || missed != 0 {
			t.Errorf("member %d after the measured pass: a %d-entry table holding %d sectors, %d missed; want no table",
				i, n, len(sectors), missed)
		}
		for _, bc := range st.rears[i].HotList() {
			counted += bc.Count
		}
	}
	learned, measured := run.Days[0].Stats.All().Count(), run.Days[1].Stats.All().Count()
	if counted != learned || measured == 0 || run.installed() == 0 {
		t.Errorf("the analyzers counted %d references; the learning pass made %d requests, the measured pass %d, %d blocks installed",
			counted, learned, measured, run.installed())
	}
}
