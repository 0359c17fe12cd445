package experiment

import (
	"context"
	"fmt"

	"repro/internal/rig"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file is the trace-replay extension: a captured block
// trace — loaded from a file in any tracein format, or synthesized
// deterministically from the system workload — scaled and replayed
// against a volume, with and without adaptive rearrangement, in open
// (timestamp-faithful) and closed (think-time) loop. It validates the
// paper's seek-savings claim on trace-driven load, the methodology the
// paper itself used, rather than on the harness's own synthetic
// clients.

// TracePoint is what the measured replay of a run showed.
type TracePoint struct {
	// Records is the scaled record count replayed in the measured pass;
	// Errors counts failed requests.
	Records int
	Errors  int
	// ElapsedMS is the simulated duration of the measured pass;
	// Throughput is completed requests per simulated second.
	ElapsedMS  float64
	Throughput float64
	// P99MS is the replayer's per-request 99th-percentile response time
	// (the volume-level mean is Run.Volume.MeanRespMS).
	P99MS float64
	// FCFSSeekMS and SeekMS are the mean seek times of arrival order
	// versus scheduled order (with any rearrangement), merged across
	// members; SeekRedPct is the reduction, the paper's headline metric.
	FCFSSeekMS float64
	SeekMS     float64
	SeekRedPct float64
}

// CaptureDay synthesizes a trace deterministically: one of the paper's
// workloads ("system" or "users") populates a fresh file system on the
// named disk (rig.PaperDisk) and runs windowMS of day 0 with every
// driver request captured — the records cmd/tracegen writes. The same
// arguments always produce the same records, so every row (and every
// worker) replays the same trace without sharing state. The second
// return is the capture engine's dispatched event count. A collector in
// ctx does not see the capture: it prepares input, it is not the run.
func CaptureDay(ctx context.Context, diskName, fsName string, windowMS float64, seed uint64) ([]trace.Record, int64, error) {
	model, reserved, err := rig.PaperDisk(diskName)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment: %w", err)
	}
	if fsName != "system" && fsName != "users" {
		return nil, 0, fmt.Errorf("experiment: unknown file system %q (valid: system, users)", fsName)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st, err := newStack(telemetry.NewContext(ctx, nil), stackSpec{
		rig:    &rig.Options{Disk: model, ReservedCyls: reserved},
		mounts: []mount{{params: captureFS(seed)}},
	})
	if err != nil {
		return nil, 0, err
	}
	w := newFileWorkload(st, 0, Source(fsName),
		workload.SystemConfig{WindowMS: windowMS, Seed: seed}, workload.UsersConfig{WindowMS: windowMS, Seed: seed})
	if err := st.await("trace capture populate", workload.DayStartMS, w.Populate); err != nil {
		return nil, 0, err
	}
	cap := trace.NewCapture(st.eng, st.rig.Driver)
	defer cap.Close()
	if err := st.await("trace capture day", workload.DayStartMS+windowMS+workload.HourMS,
		func(done func(error)) { w.RunDay(0, done) }); err != nil {
		return nil, 0, err
	}
	return cap.Records(), st.eng.Dispatched(), nil
}

// traceConfigs is the trace-replay configuration matrix. The replay
// flags (-trace-in, -replay-mode, -trace-scale, -trace-shift) collapse
// it to one custom on/off pair; with all four unset they are ignored,
// so the committed matrix (and its golden) is untouched by the flags'
// zero values.
func traceConfigs(o Options) []Experiment {
	row := func(name string, w Workload, rearr bool) Experiment {
		w.Source = Trace
		e := Experiment{Name: name, Workload: w, WindowMS: o.WindowMS, Seed: o.Seed}
		if rearr {
			e.Rearrange = &Rearrange{}
		}
		if w.Copies > 1 {
			e.Devices = Devices{Layout: volume.Stripe, Disks: 4, StripeUnit: 16}
		}
		return e
	}
	if o.TraceIn != "" || o.ReplayMode != "" || o.TraceScale > 0 || o.TraceShift != 0 {
		mode, _ := tracein.ParseMode(o.ReplayMode) // Options.Validate has parsed it
		custom := Workload{TracePath: o.TraceIn, Mode: mode, Copies: o.TraceScale, ShiftBlocks: o.TraceShift}
		return []Experiment{row("custom", custom, false), row("custom-rearr", custom, true)}
	}
	open, closed := Workload{Mode: tracein.OpenLoop}, Workload{Mode: tracein.ClosedLoop}
	scaled := Workload{Mode: tracein.OpenLoop, Copies: 4}
	return []Experiment{
		row("open-1x", open, false),
		row("open-1x-rearr", open, true),
		row("closed-1x", closed, false),
		row("closed-1x-rearr", closed, true),
		row("open-4x-stripe4", scaled, false),
		row("open-4x-stripe4-rearr", scaled, true),
	}
}

// TraceReport renders the trace-replay matrix.
func TraceReport(points []*Run) *Report {
	rep := &Report{
		ID:    "trace-replay",
		Title: "Extension: trace-driven replay — captured workload, scaled and multiplexed, rearrangement off/on",
		Columns: []string{"Config", "Mode", "Scale", "Layout", "Disks", "Rearr", "Records",
			"Req/s", "Resp (ms)", "P99 (ms)", "FCFS seek (ms)", "Seek (ms)", "Red %", "Installed", "Errors"},
	}
	for _, p := range points {
		e, t := p.Experiment, p.Replay
		scale := tracein.Scale{Compress: float64(e.Workload.Copies), Copies: e.Workload.Copies}
		rep.AddRow(e.Name, e.Workload.Mode.String(), scale.String(), string(e.Devices.Layout), fmt.Sprintf("%d", e.Devices.Disks),
			key(e.Rearrange != nil),
			fmt.Sprintf("%d", t.Records), f1(t.Throughput), f2(p.Volume.MeanRespMS), f2(t.P99MS),
			f2(t.FCFSSeekMS), f2(t.SeekMS), f1(t.SeekRedPct),
			fmt.Sprintf("%d", p.installed()), fmt.Sprintf("%d", t.Errors))
	}
	// Pair off/on rows by config prefix and call out the rearrangement
	// delta — the number the paper's claim rides on.
	byConfig := make(map[string]*Run, len(points))
	for _, p := range points {
		byConfig[p.Experiment.Name] = p
	}
	for _, p := range points {
		if p.Experiment.Rearrange == nil {
			continue
		}
		off, ok := byConfig[trimRearrSuffix(p.Experiment.Name)]
		if !ok {
			continue
		}
		rep.AddNote("%s: rearrangement moved %d blocks and cut the mean seek from %.2f to %.2f ms (%.1f%% vs %.1f%% reduction off FCFS); p99 %.2f -> %.2f ms",
			off.Experiment.Name, p.installed(), off.Replay.SeekMS, p.Replay.SeekMS,
			off.Replay.SeekRedPct, p.Replay.SeekRedPct, off.Replay.P99MS, p.Replay.P99MS)
	}
	rep.AddNote("source trace: the system workload captured once per row (tracegen's flow), or the -trace-in file; scaled rows multiplex address-shifted copies with matching time compression")
	return rep
}

// trimRearrSuffix maps an on-row config to its off pair.
func trimRearrSuffix(cfg string) string {
	const suffix = "-rearr"
	if len(cfg) > len(suffix) && cfg[len(cfg)-len(suffix):] == suffix {
		return cfg[:len(cfg)-len(suffix)]
	}
	return cfg
}
