package experiment

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/driver"
	"repro/internal/hotlist"
	"repro/internal/seek"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workload"
)

// DayResult is one measured window of a run: a file-system day, the
// tenants' traffic window, or a replay pass.
type DayResult struct {
	// Day numbers the window: the day of a file-system workload, the
	// pass of a replay (the learning pass is 0).
	Day int
	// On reports whether the disks were rearranged for this window.
	On bool
	// Stats is the drivers' full measurement snapshot for the window:
	// a single disk's own, every member's merged on a volume.
	Stats *driver.Stats
}

// Run is a completed experiment: the description as run and what each
// layer of its stack measured. Days and Counters are filled for every
// run; which other parts are follows from the description: Volume on a
// volume, Server behind a front end, Replay for a trace.
type Run struct {
	// Experiment is the description, every default resolved.
	Experiment Experiment
	// Curve is the disks' seek-time function, used to derive seek times
	// from distance distributions.
	Curve seek.Curve
	// Days holds one entry per measured window: each day of a
	// file-system workload, the tenants' one window, each replay pass
	// (the learning pass, when the run rearranges, as the off day).
	Days []DayResult
	// AccessDist is the block-access distribution of the run's last off
	// day (the day detailDays reports) over all requests, hottest first,
	// and ReadDist the distribution over its read requests only — the
	// raw material of Figures 5 and 7. Only a single-disk file-system
	// run counts them.
	AccessDist []hotlist.BlockCount
	ReadDist   []hotlist.BlockCount
	// WorkloadErrors counts failed file operations (0 in a healthy run).
	WorkloadErrors int64
	// Installed records how many blocks each rearrangement installed,
	// over all members.
	Installed []int
	// Counters is the drivers' lifetime counter snapshot at the end of
	// the run, summed over members; its fault fields (Faults, Retries,
	// Remaps, Unrecovered) are nonzero only under an active fault plan.
	Counters driver.Counters
	Volume   *VolumePoint
	Server   *TenantPoint
	Replay   *TracePoint
	// Off is a rearranging replay's learning pass as a run of its own,
	// the plain replay it is compared with: Days[0], the description
	// without Rearrange, and the pass's Counters, VolumePoint and
	// TracePoint.
	Off *Run
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
		if spec.rearrange != nil {
			// The learning pass must observe every request: size each
			// member's request table for the whole scaled trace.
			spec.rearrange.RequestTableSize = len(recs)*e.Workload.Copies + 1
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
	run.Counters = st.counters()
	return run, nil
}

// counters sums every member's lifetime counters.
func (st *stack) counters() (c driver.Counters) {
	for _, m := range st.members {
		c.Add(m.Driver.Counters())
	}
	return c
}

// openWindow starts a measured window: every member's statistics are
// discarded — populate, overnight and rearrangement traffic — and a
// volume's request statistics restart.
func (st *stack) openWindow(run *Run) {
	for _, m := range st.members {
		m.Driver.ReadStats()
	}
	if st.vol != nil {
		run.Volume.start(st.vol)
	}
}

// closeWindow ends the window opened last as day: it appends the day
// with every member's statistics since, merged, and adds a volume's
// window to the run's VolumePoint.
func (st *stack) closeWindow(run *Run, day DayResult) {
	day.Stats = st.members[0].Driver.ReadStats()
	for _, m := range st.members[1:] {
		day.Stats.Merge(m.Driver.ReadStats())
	}
	run.Days = append(run.Days, day)
	if st.vol != nil {
		run.Volume.add(st.vol)
	}
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

	// Every day is a measured window. A single disk's last off day also
	// counts the block-access distributions.
	var before, after func(day int)
	if st.rig != nil {
		drv := st.rig.Driver
		// The access distributions consume the same event stream
		// telemetry does, on one day only: the last off day, the one
		// the figures read. That day the counting sink is composed with
		// the collector, so both see every request; every other day
		// the driver keeps the collector, or no sink at all.
		countDay := lastOffDay(e)
		allCnt, readCnt := hotlist.NewExact(), hotlist.NewExact()
		var countSink telemetry.Sink = telemetry.SinkFunc(func(ev *telemetry.Event) {
			if ev.Kind != telemetry.KindRequest {
				return
			}
			allCnt.Observe(ev.Block)
			if !ev.Write {
				readCnt.Observe(ev.Block)
			}
		})
		var daySink telemetry.Sink
		if st.col.SpansEnabled() {
			daySink, countSink = st.col, telemetry.Multi(countSink, st.col)
		}
		before = func(day int) {
			if day == countDay {
				drv.SetSink(countSink)
			}
		}
		after = func(day int) {
			if day == countDay {
				drv.SetSink(daySink)
				run.AccessDist, run.ReadDist = allCnt.Distribution(), readCnt.Distribution()
			}
		}
	}
	err := st.runDays(run,
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
	if st.vol != nil {
		run.Volume.finish(st.vol, float64(e.Days)*e.WindowMS/1000)
	}
	return nil
}

// isOnDay reports whether the disk is rearranged for day: day 0 never
// is, it is the first the counts are taken from.
func isOnDay(e Experiment, day int) bool { return e.OnPattern(day) && day > 0 }

// lastOffDay returns the run's last measured off day.
func lastOffDay(e Experiment) int {
	for day := e.Days - 1; day > 0; day-- {
		if !isOnDay(e, day) {
			return day
		}
	}
	return 0
}

// measureWindow drives the tenants through the server for one traffic
// window.
func (st *stack) measureWindow(run *Run) error {
	e := run.Experiment
	w, err := workload.NewTenants(st.eng, st.srv, st.blocks, workload.TenantConfig{
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
	st.openWindow(run)
	if err := st.await("tenant traffic", end+60_000, func(done func(error)) {
		w.Run(start, end, done)
	}); err != nil {
		return err
	}
	st.closeWindow(run, DayResult{})
	run.Server = &TenantPoint{
		Issued:  w.Issued(),
		Failed:  w.Failed(),
		Server:  st.srv.Counters(),
		Breaker: st.srv.Breaker().Counts(),
		Classes: st.srv.ClassStats(),
	}
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

// measureReplay scales the trace onto the device and replays it as a
// measured window — after a learning pass, itself a window, and a
// rearrangement of every member from the counts it left, when the
// experiment rearranges: the trace-driven equivalent of an off day, a
// night and an on day. The run's TracePoint and VolumePoint describe
// the last pass; the learning pass, which measures what a plain replay
// does, is reported as the run's Off twin.
func (st *stack) measureReplay(run *Run, recs []trace.Record) error {
	e := run.Experiment
	scale := tracein.Scale{
		Compress:    float64(e.Workload.Copies),
		Copies:      e.Workload.Copies,
		ShiftBlocks: e.Workload.ShiftBlocks,
		WrapBlocks:  st.blocks,
	}
	if scale.ShiftBlocks == 0 && scale.Copies > 1 {
		scale.ShiftBlocks = st.blocks / int64(scale.Copies)
	}
	// An external trace may address past the target partition: fold it
	// in place (the copies' wrap reduces modulo the same count, so it commutes).
	for i := range recs {
		if recs[i].Part != 0 || recs[i].Block >= st.blocks {
			recs[i].Part = 0
			recs[i].Block %= st.blocks
		}
	}
	// Horizon for the await loops: the open-loop span is known from the
	// timestamps; closed loop is paced by the device, so give it a
	// service-time budget per record and let await extend.
	records := scale.Len(recs)
	span := scale.At(recs, records-1).TimeMS - scale.At(recs, 0).TimeMS
	horizon := span + 30*60*1000
	if e.Workload.Mode == tracein.ClosedLoop {
		if h := float64(records) * 10; h > horizon {
			horizon = h
		}
	}
	ropts := tracein.ReplayOptions{Mode: e.Workload.Mode, Seed: int64(e.Seed), Scale: scale}

	// pass replays the trace once as r's measured window — the learning
	// pass monitored by the rearrangers, the measured pass observed —
	// and completes r from it.
	pass := func(r *Run, what string, learning bool) error {
		var res tracein.Result
		st.openWindow(r)
		rep, err := tracein.NewReplayer(st.eng, st.dev, recs, ropts)
		if err != nil {
			return fmt.Errorf("experiment: trace %s %s: %w", e.Name, what, err)
		}
		drive := st.monitored
		if !learning {
			drive = st.await
			st.observe(rep)
		}
		if err := drive(what, st.eng.Now()+horizon, func(done func(error)) {
			rep.Start(func(out tracein.Result) {
				res = out
				done(nil)
			})
		}); err != nil {
			return err
		}
		st.closeWindow(r, DayResult{Day: len(r.Days), On: r.Experiment.Rearrange != nil})
		if st.vol != nil {
			r.Volume.finish(st.vol, res.ElapsedMS/1000)
		}
		// The seek means price the pass's distance distributions, every
		// member's merged, through the members' seek curve.
		m := r.Days[len(r.Days)-1].Metrics(r.Curve, AllRequests)
		pt := &TracePoint{
			Records:    records,
			Errors:     res.Errors,
			ElapsedMS:  res.ElapsedMS,
			P99MS:      rep.Latency().Quantile(0.99),
			FCFSSeekMS: m.FCFSSeekMS,
			SeekMS:     m.SeekMS,
		}
		if res.ElapsedMS > 0 {
			pt.Throughput = float64(res.Completed) / (res.ElapsedMS / 1000)
		}
		if pt.FCFSSeekMS > 0 {
			pt.SeekRedPct = (1 - pt.SeekMS/pt.FCFSSeekMS) * 100
		}
		r.Replay = pt
		return nil
	}

	if e.Rearrange == nil {
		return pass(run, "measured replay", false)
	}
	off := &Run{Experiment: e, Curve: run.Curve}
	off.Experiment.Rearrange = nil
	if st.vol != nil {
		off.Volume = &VolumePoint{}
	}
	if err := pass(off, "learning replay", true); err != nil {
		return err
	}
	off.Counters = st.counters()
	// The measured pass appends to the run's Days, never to the twin's.
	run.Days, run.Off = slices.Clip(off.Days), off
	n, err := st.rearrange(true, "after the learning replay")
	if err != nil {
		return err
	}
	// Nothing learns from the measured pass: drop the tables.
	for _, rear := range st.rears {
		rear.Close()
	}
	run.Installed = []int{n}
	return pass(run, "measured replay", false)
}
