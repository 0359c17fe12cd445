package experiment

import (
	"context"
	"fmt"

	"repro/internal/driver"
	"repro/internal/hotlist"
	"repro/internal/seek"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workload"
)

// DayResult is one measured day of a single disk.
type DayResult struct {
	Day int
	// On reports whether the disk was rearranged for this day.
	On bool
	// Stats is the driver's full measurement snapshot for the day.
	Stats *driver.Stats
	// AccessDist is the day's block-access distribution over all
	// requests (hottest first) and ReadDist the distribution over read
	// requests only — the raw material of Figures 5 and 7.
	AccessDist []hotlist.BlockCount
	ReadDist   []hotlist.BlockCount
}

// Run is a completed experiment: the description as run and what each
// layer of its stack measured. Which parts are filled follows from the
// description: Days and Counters on a single disk, Volume on a volume,
// Server behind a front end, Replay for a trace.
type Run struct {
	// Experiment is the description, every default resolved.
	Experiment Experiment
	// Curve is the disks' seek-time function, used to derive seek times
	// from distance distributions.
	Curve seek.Curve
	// Days holds one entry per measured day.
	Days []DayResult
	// WorkloadErrors counts failed file operations (0 in a healthy run).
	WorkloadErrors int64
	// Installed records how many blocks each rearrangement installed,
	// over all members.
	Installed []int
	// Counters is the driver's lifetime counter snapshot at the end of
	// the run; its fault fields (Faults, Retries, Remaps, Unrecovered)
	// are nonzero only under an active fault plan.
	Counters driver.Counters
	Volume   *VolumePoint
	Server   *TenantPoint
	Replay   *TracePoint
}

// OnDays returns the measured on-days.
func (r *Run) OnDays() []DayResult { return r.filter(true) }

// OffDays returns the measured off-days.
func (r *Run) OffDays() []DayResult { return r.filter(false) }

func (r *Run) filter(on bool) []DayResult {
	var out []DayResult
	for _, d := range r.Days {
		if d.On == on {
			out = append(out, d)
		}
	}
	return out
}

// installed sums the blocks every rearrangement of the run installed.
func (r *Run) installed() int {
	var n int
	for _, i := range r.Installed {
		n += i
	}
	return n
}

// Execute runs the experiment to completion. The context cancels the
// run: the engine's event loop is interrupted and Execute returns the
// context's error. Each call builds a fully self-contained stack (its
// own engine, disks, file systems and workload), so concurrent Execute
// calls never share mutable state — the property the parallel runner
// relies on.
func Execute(ctx context.Context, e Experiment) (*Run, error) {
	e, err := e.withDefaults()
	if err != nil {
		return nil, err
	}
	spec, err := e.stackSpec()
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	var captureEvents int64
	if e.Workload.Source == Trace {
		if recs, captureEvents, err = e.sourceTrace(ctx); err != nil {
			return nil, fmt.Errorf("experiment: trace %s: %w", e.Name, err)
		}
		if e.Rearrange != nil {
			// The learning pass must observe every request: size each
			// member's monitoring table for the whole scaled trace.
			spec.volume.RequestTableSize = len(recs)*e.Workload.Copies + 1
		}
	}
	st, err := newStack(ctx, spec)
	if err != nil {
		return nil, err
	}
	defer st.finish()
	st.otherEvents = captureEvents

	run := &Run{Experiment: e, Curve: e.model.Seek}
	if st.vol != nil {
		run.Volume = &VolumePoint{}
	}
	switch e.Workload.Source {
	case Tenants:
		err = st.measureWindow(run)
	case Trace:
		err = st.measureReplay(run, recs)
	default:
		err = st.measureDays(run)
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

// fileWorkload is one of the paper's two file-server workloads.
type fileWorkload interface {
	workload.Workload
	metricsBinder
	Errors() int64
}

// newFileWorkload makes the system or the users workload on one of the
// stack's file systems.
func newFileWorkload(st *stack, part int, src Source, sys workload.SystemConfig, usr workload.UsersConfig) fileWorkload {
	if src == Users {
		return workload.NewUsers(st.eng, st.fs[part], usr)
	}
	return workload.NewSystem(st.eng, st.fs[part], sys)
}

// measureDays is the paper's protocol (§5) for the file-system
// workloads: populate, then measure a day, rearrange overnight from that
// day's counts, measure the next.
func (st *stack) measureDays(run *Run) error {
	e := run.Experiment
	sys := workload.SystemConfig{WindowMS: e.WindowMS, Seed: e.Seed}
	if e.Workload.Saturate {
		sys.Clients, sys.ThinkMeanMS = saturateClients, saturateThinkMS
	}
	_, users := paperScale(e.Devices.Disk)
	usr := workload.UsersConfig{Users: users, WindowMS: e.WindowMS, Seed: e.Seed}
	var ws []fileWorkload
	if e.Workload.Source == SystemAndUsers {
		usr.Seed++
		// The two workloads share one workload_job_ms distribution.
		ws = []fileWorkload{newFileWorkload(st, 0, System, sys, usr), newFileWorkload(st, 1, Users, sys, usr)}
	} else {
		ws = []fileWorkload{newFileWorkload(st, 0, e.Workload.Source, sys, usr)}
	}
	binders := make([]metricsBinder, len(ws))
	for i, w := range ws {
		// One after the other, the last done by the first day's start.
		horizon := workload.DayStartMS * float64(i+1) / float64(len(ws))
		if err := st.await("populate", horizon, w.Populate); err != nil {
			return err
		}
		binders[i] = w
	}
	st.observe(binders...)

	// What a day leaves behind: on a single disk the driver's tables and
	// the access distributions, on a volume its request statistics.
	var before, after func(day int)
	if st.rig == nil {
		before = func(int) { run.Volume.start(st.vol) } // discard overnight / populate traffic
		after = func(int) { run.Volume.add(st.vol) }
	} else {
		drv := st.rig.Driver
		// The per-day access distributions consume the same event stream
		// telemetry does; compose the counting sink with the collector so
		// both see every request.
		allCnt, readCnt := hotlist.NewExact(), hotlist.NewExact()
		countSink := telemetry.SinkFunc(func(ev *telemetry.Event) {
			if ev.Kind != telemetry.KindRequest {
				return
			}
			allCnt.Observe(ev.Block)
			if !ev.Write {
				readCnt.Observe(ev.Block)
			}
		})
		if st.col.SpansEnabled() {
			drv.SetSink(telemetry.Multi(countSink, st.col))
		} else {
			drv.SetSink(countSink)
		}
		before = func(int) {
			drv.ReadStats() // discard overnight / populate noise
			allCnt.Reset()
			readCnt.Reset()
		}
		after = func(day int) {
			run.Days = append(run.Days, DayResult{
				Day:        day,
				On:         e.OnPattern(day) && day > 0,
				Stats:      drv.ReadStats(),
				AccessDist: allCnt.Distribution(),
				ReadDist:   readCnt.Distribution(),
			})
		}
	}
	var err error
	run.Installed, err = st.runDays(e.Days, e.WindowMS, e.OnPattern,
		func(day int, done func(error)) {
			// All the workloads run concurrently over the same window.
			remaining := len(ws)
			var firstErr error
			for _, w := range ws {
				w.RunDay(day, func(err error) {
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if remaining--; remaining == 0 {
						done(firstErr)
					}
				})
			}
		}, before, after)
	if err != nil {
		return err
	}
	for _, w := range ws {
		run.WorkloadErrors += w.Errors()
	}
	if st.rig != nil {
		run.Counters = st.rig.Driver.Counters()
	} else {
		run.Volume.finish(st.vol, float64(e.Days)*e.WindowMS/1000)
	}
	return nil
}

// measureWindow drives the tenants through the server for one traffic
// window.
func (st *stack) measureWindow(run *Run) error {
	e := run.Experiment
	w, err := workload.NewTenants(st.eng, st.srv, st.vol.Blocks(), workload.TenantConfig{
		Tenants:     e.Workload.Tenants,
		Classes:     3,
		RatePerSec:  e.Workload.RatePerSec,
		ReadFrac:    e.Workload.ReadFrac,
		Noisy:       e.Workload.Noisy,
		NoisyTenant: 2,
		Seed:        e.Seed,
	})
	if err != nil {
		return err
	}
	st.observe()

	// Traffic starts at the paper's day start — long after formatting —
	// purely so every configuration shares one well-known clock origin.
	start := workload.DayStartMS
	end := start + e.WindowMS
	if err := st.await("tenant traffic", end+60_000, func(done func(error)) {
		w.Run(start, end, done)
	}); err != nil {
		return err
	}
	run.Server = &TenantPoint{
		Issued:  w.Issued(),
		Failed:  w.Failed(),
		Server:  st.srv.Counters(),
		Breaker: st.srv.Breaker().Counts(),
		Classes: st.srv.ClassStats(),
	}
	run.Volume.add(st.vol)
	run.Volume.finish(st.vol, e.WindowMS/1000)
	return nil
}

// sourceTrace reads the experiment's trace file or, without one,
// captures the system workload on a Toshiba; the second return is the
// capture engine's event count.
func (e Experiment) sourceTrace(ctx context.Context) (recs []trace.Record, captureEvents int64, err error) {
	if e.Workload.TracePath != "" {
		recs, _, err = tracein.ReadFile(e.Workload.TracePath, tracein.FormatUnknown, tracein.Options{})
	} else {
		recs, captureEvents, err = CaptureDay(ctx, "toshiba", "system", e.WindowMS, e.Seed)
	}
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("empty trace")
	}
	return recs, captureEvents, err
}

// measureReplay scales the trace onto the volume and replays it
// measured — after a learning replay and a rearrangement of every member
// from the counts it left, when the experiment rearranges: the
// trace-driven equivalent of an on-day.
func (st *stack) measureReplay(run *Run, recs []trace.Record) error {
	e, v := run.Experiment, st.vol
	blocks := v.Blocks()
	scale := tracein.Scale{
		Compress:    float64(e.Workload.Copies),
		Copies:      e.Workload.Copies,
		ShiftBlocks: e.Workload.ShiftBlocks,
		WrapBlocks:  blocks,
	}
	if scale.ShiftBlocks == 0 && scale.Copies > 1 {
		scale.ShiftBlocks = blocks / int64(scale.Copies)
	}
	scaled := scale.Apply(recs)
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
	if e.Workload.Mode == tracein.ClosedLoop {
		if h := float64(len(scaled)) * 10; h > horizon {
			horizon = h
		}
	}
	ropts := tracein.ReplayOptions{Mode: e.Workload.Mode, Seed: int64(e.Seed)}

	if e.Rearrange != nil {
		learn, err := tracein.NewReplayer(st.eng, v, scaled, ropts)
		if err != nil {
			return fmt.Errorf("experiment: trace %s learning replayer: %w", e.Name, err)
		}
		if err := st.monitored("learning replay", st.eng.Now()+horizon, func(done func(error)) {
			learn.Start(func(tracein.Result) { done(nil) })
		}); err != nil {
			return err
		}
		n, err := st.rearrange(true, "after the learning replay")
		if err != nil {
			return err
		}
		run.Installed = []int{n}
	}

	// Discard everything measured so far — populate-analogue traffic,
	// the learning pass, the rearrangement moves — so the measured pass
	// starts from clean statistics on every member.
	run.Volume.start(v)
	for _, m := range v.Members {
		m.Driver.ReadStats()
	}

	rep, err := tracein.NewReplayer(st.eng, v, scaled, ropts)
	if err != nil {
		return fmt.Errorf("experiment: trace %s replayer: %w", e.Name, err)
	}
	st.observe(rep)
	var res tracein.Result
	if err := st.await("measured replay", st.eng.Now()+horizon, func(done func(error)) {
		rep.Start(func(r tracein.Result) {
			res = r
			done(nil)
		})
	}); err != nil {
		return err
	}

	run.Volume.add(v)
	run.Volume.finish(v, res.ElapsedMS/1000)
	pt := &TracePoint{
		Records:   len(scaled),
		Errors:    res.Errors,
		ElapsedMS: res.ElapsedMS,
		P99MS:     rep.Latency().Quantile(0.99),
	}
	if res.ElapsedMS > 0 {
		pt.Throughput = float64(res.Completed) / (res.ElapsedMS / 1000)
	}
	// Seek metrics: merge every member's arrival-order and
	// scheduled-order distance distributions (reads and writes), then
	// price both through the members' seek curve.
	fcfs, sched := stats.NewDistHist(), stats.NewDistHist()
	for _, m := range v.Members {
		all := m.Driver.ReadStats().All()
		fcfs.Merge(all.FCFSDist)
		sched.Merge(all.SchedDist)
	}
	pt.FCFSSeekMS = fcfs.MeanSeekMS(run.Curve)
	pt.SeekMS = sched.MeanSeekMS(run.Curve)
	if pt.FCFSSeekMS > 0 {
		pt.SeekRedPct = (1 - pt.SeekMS/pt.FCFSSeekMS) * 100
	}
	run.Replay = pt
	return nil
}
