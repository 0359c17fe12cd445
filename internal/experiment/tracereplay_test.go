package experiment

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/tracein"
	"repro/internal/volume"
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
