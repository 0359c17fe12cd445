package experiment

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file registers the trace-replay extension: a captured block
// trace — loaded from a file in any tracein format, or synthesized
// deterministically from the system workload — scaled and replayed
// against a volume, with and without adaptive rearrangement, in open
// (timestamp-faithful) and closed (think-time) loop. It validates the
// paper's seek-savings claim on trace-driven load, the methodology the
// paper itself used, rather than on the harness's own synthetic
// clients.

// TraceSetup describes one trace-replay row.
type TraceSetup struct {
	// Config is the short row label ("open-1x", "open-4x-stripe4-rearr").
	Config string
	// TracePath, when non-empty, replays this trace file (any tracein
	// format, auto-detected unless TraceFormat is set). Empty
	// synthesizes a trace from the system workload over WindowMS.
	TracePath   string
	TraceFormat tracein.Format
	// Mode is the replay pacing (open or closed loop).
	Mode tracein.Mode
	// Copies and Compress scale the trace (tracein.Scale): Copies
	// address-shifted replicas at 1/Compress of the original spacing.
	// ShiftBlocks overrides the per-copy address shift; 0 spreads the
	// copies evenly over the target's address space.
	Copies      int
	Compress    float64
	ShiftBlocks int64
	// Rearrange runs a learning replay first, rearranges every member
	// from the measured counts, and then replays again measured — the
	// trace-driven equivalent of an on-day.
	Rearrange bool
	// Layout, Disks and StripeUnit configure the target volume.
	Layout     volume.Layout
	Disks      int
	StripeUnit int
	// WindowMS bounds the synthesized capture; Seed seeds the capture
	// workload and the closed-loop think times.
	WindowMS float64
	Seed     uint64
}

func (s TraceSetup) withDefaults() TraceSetup {
	if s.Layout == "" {
		s.Layout = volume.Concat
	}
	if s.Disks <= 0 {
		s.Disks = 1
	}
	if s.Copies < 1 {
		s.Copies = 1
	}
	if s.Compress <= 0 {
		s.Compress = 1
	}
	if s.WindowMS <= 0 {
		s.WindowMS = workload.DayEndMS - workload.DayStartMS
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Config == "" {
		s.Config = fmt.Sprintf("%s-%dx", s.Mode, s.Copies)
	}
	return s
}

// scale builds the tracein.Scale for the target's address space.
func (s TraceSetup) scale(targetBlocks int64) tracein.Scale {
	shift := s.ShiftBlocks
	if shift == 0 && s.Copies > 1 {
		shift = targetBlocks / int64(s.Copies)
	}
	return tracein.Scale{
		Compress:    s.Compress,
		Copies:      s.Copies,
		ShiftBlocks: shift,
		WrapBlocks:  targetBlocks,
	}
}

// TracePoint is the outcome of one trace-replay row.
type TracePoint struct {
	// Config through Rearrange echo the setup.
	Config    string
	Mode      string
	Scale     string
	Layout    string
	Disks     int
	Rearrange bool
	// Records is the scaled record count replayed in the measured pass;
	// Errors counts failed requests.
	Records int
	Errors  int
	// ElapsedMS is the simulated duration of the measured pass;
	// Throughput is completed requests per simulated second.
	ElapsedMS  float64
	Throughput float64
	// MeanRespMS and P99MS are the volume-level mean and the replayer's
	// per-request 99th-percentile response times.
	MeanRespMS float64
	P99MS      float64
	// FCFSSeekMS and SeekMS are the mean seek times of arrival order
	// versus scheduled order (with any rearrangement), merged across
	// members; SeekRedPct is the reduction, the paper's headline metric.
	FCFSSeekMS float64
	SeekMS     float64
	SeekRedPct float64
	// Installed sums the blocks installed by per-member rearrangements.
	Installed int
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
		rig: &rig.Options{Disk: model, ReservedCyls: reserved},
		mounts: []mount{{params: fs.Params{
			Cache: cache.Config{CapacityBlocks: 512, PressurePeriodMS: 60_000, Seed: seed},
		}}},
	})
	if err != nil {
		return nil, 0, err
	}
	w := paperWorkload(st, fsName, 0, 0, windowMS, seed)
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

// ExecuteTraceReplay runs one trace-replay row to completion. Like
// ExecuteVolume it builds a fully self-contained stack per call, so
// rows run concurrently on the parallel runner.
func ExecuteTraceReplay(ctx context.Context, s TraceSetup) (*TracePoint, error) {
	s = s.withDefaults()

	var recs []trace.Record
	var capEvents int64
	var err error
	if s.TracePath != "" {
		recs, _, err = tracein.ReadFile(s.TracePath, s.TraceFormat, tracein.Options{})
	} else {
		recs, capEvents, err = CaptureDay(ctx, "toshiba", "system", s.WindowMS, s.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: trace %s: %w", s.Config, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("experiment: trace %s: empty trace", s.Config)
	}

	spec := stackSpec{volume: &volume.Options{
		Layout:       s.Layout,
		Disks:        s.Disks,
		StripeUnit:   s.StripeUnit,
		ReservedCyls: 48,
	}}
	if s.Rearrange {
		// The learning pass must observe every request: size each
		// member's monitoring table for the whole scaled trace.
		spec.volume.RequestTableSize = len(recs)*s.Copies + 1
		spec.rearrange = &core.Config{MaxBlocks: toshibaSlots}
	}
	st, err := newStack(ctx, spec)
	if err != nil {
		return nil, err
	}
	defer st.finish()
	st.otherEvents = capEvents
	v := st.vol

	blocks := v.Blocks()
	scaled := s.scale(blocks).Apply(recs)
	// An external trace (or a capture from a slightly different
	// geometry) may address past the target partition; fold it in
	// deterministically rather than failing mid-matrix.
	for i := range scaled {
		if scaled[i].Part != 0 || scaled[i].Block >= blocks {
			scaled[i].Part = 0
			scaled[i].Block %= blocks
		}
	}
	// Horizon for the await loops: the open-loop span is known from the
	// timestamps; closed loop is paced by the device, so give it a
	// service-time budget per record and let await extend.
	span := scaled[len(scaled)-1].TimeMS - scaled[0].TimeMS
	horizon := span + 30*60*1000
	if s.Mode == tracein.ClosedLoop {
		if h := float64(len(scaled)) * 10; h > horizon {
			horizon = h
		}
	}
	ropts := tracein.ReplayOptions{Mode: s.Mode, Seed: int64(s.Seed)}

	pt := &TracePoint{
		Config:    s.Config,
		Mode:      s.Mode.String(),
		Scale:     s.scale(blocks).String(),
		Layout:    string(s.Layout),
		Disks:     s.Disks,
		Rearrange: s.Rearrange,
		Records:   len(scaled),
	}

	if s.Rearrange {
		// Learning pass: replay once with monitoring on, then rearrange
		// every member overnight-style from its own counts.
		learn, err := tracein.NewReplayer(st.eng, v, scaled, ropts)
		if err != nil {
			return nil, fmt.Errorf("experiment: trace %s learning replayer: %w", s.Config, err)
		}
		if err := st.monitored("learning replay", st.eng.Now()+horizon, func(done func(error)) {
			learn.Start(func(tracein.Result) { done(nil) })
		}); err != nil {
			return nil, err
		}
		if pt.Installed, err = st.rearrange(true, "after the learning replay"); err != nil {
			return nil, err
		}
	}

	// Discard everything measured so far — populate-analogue traffic,
	// the learning pass, the rearrangement moves — so the measured pass
	// starts from clean statistics on every member.
	v.ResetStats()
	for _, m := range v.Members {
		m.Driver.ReadStats()
	}

	rep, err := tracein.NewReplayer(st.eng, v, scaled, ropts)
	if err != nil {
		return nil, fmt.Errorf("experiment: trace %s replayer: %w", s.Config, err)
	}
	// The replayer always gets a latency histogram (P99 is a report
	// column); when the job carries a metrics collector the instruments
	// land there instead, alongside the volume's and per-member
	// drivers', exactly as in ExecuteVolume.
	if !st.col.MetricsEnabled() {
		rep.BindMetrics(metrics.NewRegistry())
	}
	st.observe(rep)
	var res tracein.Result
	if err := st.await("measured replay", st.eng.Now()+horizon, func(done func(error)) {
		rep.Start(func(r tracein.Result) {
			res = r
			done(nil)
		})
	}); err != nil {
		return nil, err
	}

	vs := v.Stats()
	pt.Errors = res.Errors
	pt.ElapsedMS = res.ElapsedMS
	if res.ElapsedMS > 0 {
		pt.Throughput = float64(res.Completed) / (res.ElapsedMS / 1000)
	}
	if vs.Requests > 0 {
		pt.MeanRespMS = vs.RespMSSum / float64(vs.Requests)
	}
	pt.P99MS = rep.Latency().Quantile(0.99)

	// Seek metrics: merge every member's arrival-order and
	// scheduled-order distance distributions (reads and writes), then
	// price both through the member disks' seek curve — the members are
	// homogeneous Toshibas, so one curve serves the volume.
	fcfs, sched := stats.NewDistHist(), stats.NewDistHist()
	for _, m := range v.Members {
		all := m.Driver.ReadStats().All()
		fcfs.Merge(all.FCFSDist)
		sched.Merge(all.SchedDist)
	}
	curve := disk.Toshiba().Seek
	pt.FCFSSeekMS = fcfs.MeanSeekMS(curve)
	pt.SeekMS = sched.MeanSeekMS(curve)
	if pt.FCFSSeekMS > 0 {
		pt.SeekRedPct = (1 - pt.SeekMS/pt.FCFSSeekMS) * 100
	}
	return pt, nil
}

// traceConfigs is the trace-replay configuration matrix. The replay
// flags (-trace-in, -replay-mode, -trace-scale, -trace-shift) collapse
// it to one custom on/off pair; with all four unset they are ignored,
// so the committed matrix (and its golden) is untouched by the flags'
// zero values.
func traceConfigs(o Options) []TraceSetup {
	base := func(cfg string, mode tracein.Mode, rearr bool) TraceSetup {
		return TraceSetup{
			Config: cfg, Mode: mode, Rearrange: rearr,
			WindowMS: o.WindowMS, Seed: o.Seed,
		}
	}
	if o.TraceIn != "" || o.ReplayMode != "" || o.TraceScale > 0 || o.TraceShift != 0 {
		mode, err := tracein.ParseMode(o.ReplayMode)
		if err != nil {
			mode = tracein.OpenLoop
		}
		copies := o.TraceScale
		if copies < 1 {
			copies = 1
		}
		mk := func(cfg string, rearr bool) TraceSetup {
			s := base(cfg, mode, rearr)
			s.TracePath = o.TraceIn
			s.Copies = copies
			s.Compress = float64(copies)
			s.ShiftBlocks = o.TraceShift
			if copies > 1 {
				s.Layout, s.Disks, s.StripeUnit = volume.Stripe, 4, 16
			}
			return s
		}
		return []TraceSetup{mk("custom", false), mk("custom-rearr", true)}
	}
	scaled := func(cfg string, rearr bool) TraceSetup {
		s := base(cfg, tracein.OpenLoop, rearr)
		s.Copies, s.Compress = 4, 4
		s.Layout, s.Disks, s.StripeUnit = volume.Stripe, 4, 16
		return s
	}
	return []TraceSetup{
		base("open-1x", tracein.OpenLoop, false),
		base("open-1x-rearr", tracein.OpenLoop, true),
		base("closed-1x", tracein.ClosedLoop, false),
		base("closed-1x-rearr", tracein.ClosedLoop, true),
		scaled("open-4x-stripe4", false),
		scaled("open-4x-stripe4-rearr", true),
	}
}

// traceUnits decomposes the trace-replay matrix into one independent
// run per row. Every row re-synthesizes (or re-reads) the source trace
// itself — deterministic, so all rows replay identical records with no
// shared state across the pool.
func traceUnits(o Options) []unit {
	return matrixUnits(traceConfigs(o),
		func(s TraceSetup) (string, float64) { return "trace/" + s.Config, 1 },
		ExecuteTraceReplay,
		func(rs *ResultSet, _ TraceSetup, pt *TracePoint) { rs.Trace = append(rs.Trace, *pt) })
}

// TraceReport renders the trace-replay matrix.
func TraceReport(points []TracePoint) *Report {
	rep := &Report{
		ID:    "trace-replay",
		Title: "Extension: trace-driven replay — captured workload, scaled and multiplexed, rearrangement off/on",
		Columns: []string{"Config", "Mode", "Scale", "Layout", "Disks", "Rearr", "Records",
			"Req/s", "Resp (ms)", "P99 (ms)", "FCFS seek (ms)", "Seek (ms)", "Red %", "Installed", "Errors"},
	}
	for _, p := range points {
		rearr := "off"
		if p.Rearrange {
			rearr = "on"
		}
		rep.AddRow(p.Config, p.Mode, p.Scale, p.Layout, fmt.Sprintf("%d", p.Disks), rearr,
			fmt.Sprintf("%d", p.Records), f1(p.Throughput), f2(p.MeanRespMS), f2(p.P99MS),
			f2(p.FCFSSeekMS), f2(p.SeekMS), f1(p.SeekRedPct),
			fmt.Sprintf("%d", p.Installed), fmt.Sprintf("%d", p.Errors))
	}
	// Pair off/on rows by config prefix and call out the rearrangement
	// delta — the number the paper's claim rides on.
	byConfig := make(map[string]TracePoint, len(points))
	for _, p := range points {
		byConfig[p.Config] = p
	}
	for _, p := range points {
		if !p.Rearrange {
			continue
		}
		off, ok := byConfig[trimRearrSuffix(p.Config)]
		if !ok {
			continue
		}
		rep.AddNote("%s: rearrangement moved %d blocks and cut the mean seek from %.2f to %.2f ms (%.1f%% vs %.1f%% reduction off FCFS); p99 %.2f -> %.2f ms",
			off.Config, p.Installed, off.SeekMS, p.SeekMS, off.SeekRedPct, p.SeekRedPct, off.P99MS, p.P99MS)
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

// registerTraceReplay registers the trace-replay extension experiment.
func registerTraceReplay() {
	Register(Spec{
		ID: "trace-replay", Description: "extension: real-trace ingestion and scaled deterministic replay (tracein)",
		Needs: []Need{NeedTrace},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{TraceReport(rs.Trace)}
		},
	})
}
