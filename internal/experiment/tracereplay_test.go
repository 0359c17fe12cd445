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
// trace.
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
	get := func(cfg string) *TracePoint {
		p, ok := byCfg[cfg]
		if !ok {
			t.Fatalf("matrix has no %q row (got %d rows)", cfg, len(runs))
		}
		return p.Replay
	}

	base := get("open-1x")
	if base.Records == 0 || base.Errors != 0 {
		t.Fatalf("open-1x: Records = %d, Errors = %d, want load and no errors", base.Records, base.Errors)
	}
	if base.P99MS <= 0 || base.FCFSSeekMS <= 0 {
		t.Errorf("open-1x: P99MS = %v, FCFSSeekMS = %v, want both > 0", base.P99MS, base.FCFSSeekMS)
	}

	// Closed loop replays the same records paced by think time.
	if cl := get("closed-1x"); cl.Records != base.Records || cl.Errors != 0 {
		t.Errorf("closed-1x: Records = %d, Errors = %d, want %d and 0", cl.Records, cl.Errors, base.Records)
	}

	// The scaled row multiplexes 4 copies over a 4-disk stripe.
	sc := get("open-4x-stripe4")
	if sc.Records != 4*base.Records {
		t.Errorf("open-4x-stripe4: Records = %d, want %d (4 copies)", sc.Records, 4*base.Records)
	}
	if d := byCfg["open-4x-stripe4"].Experiment.Devices; d.Disks != 4 {
		t.Errorf("open-4x-stripe4: Disks = %d, want 4", d.Disks)
	}

	// Rearrangement on the replayed trace: blocks moved, seeks cut —
	// the paper's claim, demonstrated on trace-driven load.
	for _, cfg := range []string{"open-1x", "open-4x-stripe4"} {
		off, on := get(cfg), get(cfg+"-rearr")
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
// flags reduces the matrix to one custom off/on pair carrying the CLI
// settings, while all-unset reproduces the committed six-row matrix.
func TestTraceConfigsCustomRow(t *testing.T) {
	o := equivOptions()
	if got := traceConfigs(o); len(got) != 6 {
		t.Fatalf("default matrix: %d rows, want 6", len(got))
	}

	o.TraceIn = "testdata/some.trace"
	o.ReplayMode = "closed"
	o.TraceScale = 4
	o.TraceShift = 1000
	rows := traceConfigs(o)
	if len(rows) != 2 {
		t.Fatalf("flag matrix: %d rows, want 2", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Rearrange != nil || on.Rearrange == nil {
		t.Errorf("want an off/on pair, got %v/%v", off.Rearrange, on.Rearrange)
	}
	for _, s := range rows {
		if w := s.Workload; w.TracePath != o.TraceIn || w.Mode != tracein.ClosedLoop {
			t.Errorf("custom row dropped -trace-in/-replay-mode: %+v", w)
		}
		if w := s.Workload; w.Copies != 4 || w.ShiftBlocks != 1000 {
			t.Errorf("custom row dropped -trace-scale/-trace-shift: %+v", w)
		}
		if d := s.Devices; d.Layout != volume.Stripe || d.Disks != 4 {
			t.Errorf("scaled custom row: layout %v disks %d, want stripe/4", d.Layout, d.Disks)
		}
	}

	// A bare -replay-mode still collapses, on a single disk.
	o = equivOptions()
	o.ReplayMode = "closed"
	rows = traceConfigs(o)
	if len(rows) != 2 {
		t.Fatalf("bare -replay-mode: %d rows, want 2", len(rows))
	}
	if s, err := rows[0].withDefaults(); err != nil || s.Devices.Disks != 1 || s.Devices.Layout != volume.Concat {
		t.Fatalf("bare -replay-mode: want a concat-1 pair, got %+v, %v", s.Devices, err)
	}
}

func TestTrimRearrSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"open-1x-rearr": "open-1x",
		"open-1x":       "open-1x",
		"-rearr":        "-rearr",
	} {
		if got := trimRearrSuffix(in); got != want {
			t.Errorf("trimRearrSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBareDiskEqualsOneMemberVolume: a volume of one member adds
// nothing to a replay. The same captured trace replayed on the bare
// disk, on a 1-member concat and on a 1-member stripe measures bit for
// bit the same, with no rearranger and after rearranging 100 blocks.
func TestBareDiskEqualsOneMemberVolume(t *testing.T) {
	for _, rearrange := range []*Rearrange{nil, {Blocks: 100}} {
		var want *Run
		for _, d := range []Devices{{}, {Layout: volume.Concat}, {Layout: volume.Stripe, Disks: 1}} {
			r, err := Execute(context.Background(), Experiment{
				Devices:   d,
				Workload:  Workload{Source: Trace},
				Rearrange: rearrange,
				WindowMS:  0.2 * workload.HourMS,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = r
				if p := r.Replay; p.Errors != 0 || p.SeekMS <= 0 || p.SeekMS >= p.FCFSSeekMS {
					t.Fatalf("bare disk, rearrange %v: %+v, want a clean replay that SCAN improves on", rearrange, p)
				}
				if rearrange != nil && !reflect.DeepEqual(r.Installed, []int{100}) {
					t.Fatalf("bare disk: installed %v, want [100]", r.Installed)
				}
				continue
			}
			figures := func(r *Run) [4]uint64 {
				p := r.Replay
				return [4]uint64{math.Float64bits(p.FCFSSeekMS), math.Float64bits(p.SeekMS),
					math.Float64bits(p.P99MS), math.Float64bits(p.ElapsedMS)}
			}
			if figures(r) != figures(want) || !reflect.DeepEqual(r.Installed, want.Installed) {
				t.Errorf("layout %q of %d, rearrange %v: FCFS seek %v, seek %v, p99 %v, elapsed %v ms, installed %v; bare disk %v, %v, %v, %v ms, %v",
					d.Layout, d.Disks, rearrange, r.Replay.FCFSSeekMS, r.Replay.SeekMS, r.Replay.P99MS, r.Replay.ElapsedMS, r.Installed,
					want.Replay.FCFSSeekMS, want.Replay.SeekMS, want.Replay.P99MS, want.Replay.ElapsedMS, want.Installed)
			}
		}
	}
}
