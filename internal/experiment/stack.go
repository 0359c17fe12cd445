package experiment

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file is the one place an experiment's model stack is assembled,
// observed and driven: Execute describes its stack, makes its workload
// on it and says what to collect. The type sits here rather
// than in internal/rig because volume imports rig — what can hold
// either is above both — and stack_test.go fails a second assembly site.

// mount is one file system of a stack. A name tells the mounts of a
// multi-partition stack apart: it prefixes the mount's sampler column
// and labels its metrics fs="name".
type mount struct {
	name   string
	params fs.Params
}

// stackSpec describes a stack, bottom up.
type stackSpec struct {
	// Exactly one of rig and volume describes the devices; the stack
	// fills their Ctx and Telemetry. A rig's Sched, when set, is wrapped
	// in a sched.Counting for observed runs; nil is the driver's own
	// SCAN and is not counted.
	rig    *rig.Options
	volume *volume.Options
	// mounts lists one file system per partition, in partition order;
	// none leaves the raw block path.
	mounts []mount
	// server, when set, puts the multi-tenant front end on the device.
	server *server.Config
	// rearrange, when set, gives every member disk a rearranger of this
	// configuration: each learns from its own monitoring table and
	// rearranges its own reserved region, exactly as N independent
	// single-disk deployments would.
	rearrange *core.Config
}

// stack is a built stackSpec.
type stack struct {
	ctx context.Context
	// col is the job's collector, injected through the context by the
	// harness; nil leaves every hook on its zero-cost path.
	col *telemetry.Collector
	eng *sim.Engine
	// rig or vol is the device layer and members the disks under it
	// (the rig itself, or the volume's members, hot spares last).
	rig     *rig.Rig
	vol     *volume.Volume
	members []*rig.Rig
	sched   *sched.Counting // nil unless counted, see stackSpec.rig
	mounts  []mount
	fs      []*fs.FS // by partition
	srv     *server.Server
	rears   []*core.Rearranger // by member
	// sampling is set once the sampler runs.
	sampling bool
	// otherEvents is the event count of any other engine the job ran
	// (a trace capture), added to this engine's in the job's total.
	otherEvents int64
}

// newStack builds the described stack: devices, file systems formatted
// to quiescence, the server, the rearrangers. Every stack is on its own
// engine, so concurrent jobs share no mutable state. The context
// cancels it: the engine's event loop is interrupted and the stack's
// methods return the context's error.
func newStack(ctx context.Context, d stackSpec) (*stack, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &stack{ctx: ctx, col: telemetry.FromContext(ctx), mounts: d.mounts}
	var dev driver.BlockDevice
	if d.rig != nil {
		o := *d.rig
		o.Ctx, o.Telemetry = ctx, s.col
		if o.Sched != nil && (s.col.SamplePeriodMS() > 0 || s.col.MetricsEnabled()) {
			s.sched = sched.NewCounting(o.Sched)
			o.Sched = s.sched
		}
		r, err := rig.New(o)
		if err != nil {
			return nil, err
		}
		s.rig, s.eng, s.members, dev = r, r.Eng, []*rig.Rig{r}, r.Driver
	} else {
		o := *d.volume
		o.Ctx, o.Telemetry = ctx, s.col
		v, err := volume.New(o)
		if err != nil {
			return nil, err
		}
		s.vol, s.eng, s.members, dev = v, v.Eng, v.Members, v
	}
	for part, m := range d.mounts {
		f, err := fs.Newfs(s.eng, dev, part, m.params)
		if err != nil {
			return nil, err
		}
		s.fs = append(s.fs, f)
	}
	s.eng.Run() // format completes before any daemon exists
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.server != nil {
		var err error
		if s.srv, err = server.New(s.eng, dev, *d.server); err != nil {
			return nil, err
		}
	}
	if d.rearrange != nil {
		for i, m := range s.members {
			rear, err := core.New(s.eng, m.Driver, *d.rearrange)
			if err != nil {
				return nil, fmt.Errorf("experiment: member %d rearranger: %w", i, err)
			}
			s.rears = append(s.rears, rear)
		}
	}
	// Last, so that no failed build leaves the ticker armed; from here
	// the engine always has a future event, and finish disarms it.
	if s.vol != nil {
		s.vol.StartScrub()
	}
	return s, nil
}

// await drives the engine until an async operation signals completion,
// extending the horizon in bounded increments so periodic daemons cannot
// stall it, and failing if the operation takes absurdly long. A
// cancelled stack surfaces as the context's error rather than a stall.
func (s *stack) await(what string, horizon float64, op func(done func(error))) error {
	var opErr error
	finished := false
	op(func(err error) {
		opErr = err
		finished = true
	})
	s.eng.RunUntil(horizon)
	for ext := 0; !finished && s.ctx.Err() == nil && ext < 200; ext++ {
		s.eng.RunUntil(s.eng.Now() + 10*60*1000)
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if !finished {
		return fmt.Errorf("experiment: %s did not complete by t=%.0f ms", what, s.eng.Now())
	}
	return opErr
}

// monitored is await with every member's reference stream analyzer
// polling its driver's request table for the duration.
func (s *stack) monitored(what string, horizon float64, op func(done func(error))) error {
	for _, rear := range s.rears {
		rear.StartMonitoring()
	}
	if err := s.await(what, horizon, op); err != nil {
		return err
	}
	for _, rear := range s.rears {
		rear.StopMonitoring()
	}
	return nil
}

// rearrange runs one overnight cycle on every member in turn, from the
// counts its analyzer holds: with on the hot blocks are installed in
// the reserved region, without it is only emptied. It returns the
// blocks installed over all members.
func (s *stack) rearrange(on bool, when string) (int, error) {
	var installed int
	for i, rear := range s.rears {
		op := rear.CleanOnly
		if on {
			op = func(done func(error)) {
				rear.Rearrange(func(n int, err error) {
					installed += n
					done(err)
				})
			}
		}
		what := fmt.Sprintf("rearrange member %d %s", i, when)
		if err := s.await(what, s.eng.Now()+2*workload.HourMS, op); err != nil {
			return 0, err
		}
	}
	return installed, nil
}

// runDays is the paper's measurement protocol (§5). Each day: run to
// the day's start, let before discard the overnight and populate noise,
// run the day's workload monitored, let after collect the day's
// figures; overnight, rearrange if on says the next day is an on-day,
// else clean. It returns the blocks each rearrangement installed.
func (s *stack) runDays(days int, windowMS float64, on func(day int) bool,
	runDay func(day int, done func(error)), before, after func(day int)) ([]int, error) {
	var installed []int
	for day := 0; day < days; day++ {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		dayStart := float64(day)*workload.DayMS + workload.DayStartMS
		s.eng.RunUntil(dayStart)
		before(day)
		err := s.monitored(fmt.Sprintf("day %d", day), dayStart+windowMS+30*60*1000,
			func(done func(error)) { runDay(day, done) })
		if err != nil {
			return nil, err
		}
		after(day)
		if day+1 < days {
			onNext := on(day + 1)
			n, err := s.rearrange(onNext, fmt.Sprintf("after day %d", day))
			if err != nil {
				return nil, err
			}
			if onNext {
				installed = append(installed, n)
			}
		}
		for _, rear := range s.rears {
			rear.ResetCounts()
		}
	}
	return installed, nil
}

// metricsBinder is a workload or replayer with instruments of its own.
type metricsBinder interface{ BindMetrics(*metrics.Registry) }

// observe turns on what the job's collector asked for, sampler and
// metrics. Call it after populate, so the distributions cover only
// measured traffic.
func (s *stack) observe(extra ...metricsBinder) {
	s.startSampler()
	s.bindMetrics(extra...)
}

// startSampler registers the probe columns of this shape of stack, in
// CSV column order, and starts the sampler, once: observe's first half,
// apart for the one experiment whose time series begins before populate.
func (s *stack) startSampler() {
	if s.col.SamplePeriodMS() <= 0 || s.sampling {
		return
	}
	s.sampling = true
	switch {
	case s.srv != nil:
		registerTenantProbes(s.col, s.eng, s.members, s.srv)
	case s.vol != nil:
		registerVolumeProbes(s.col, s.members)
	default:
		registerStackProbes(s.col, s.rig, s.sched)
		for i, f := range s.fs {
			if name := s.mounts[i].name; name != "" {
				registerCacheProbes(s.col, name+"_cache", f.Cache())
			} else {
				registerCacheProbes(s.col, "cache", f.Cache())
				registerCacheProbes(s.col, "meta", f.MetaCache())
			}
		}
		if len(s.rears) > 0 {
			registerRearrangerProbes(s.col, s.rears[0])
		}
		if s.rig.Faults != nil {
			registerFaultProbes(s.col, "", s.rig.Driver)
		}
	}
	s.col.StartSampler(s.eng)
}

// bindMetrics binds the registry top down — server, device, file
// systems, the extra binders — and then, under a volume, every member
// driver under a disk="i" label in member-index order.
func (s *stack) bindMetrics(extra ...metricsBinder) {
	if !s.col.MetricsEnabled() {
		return
	}
	reg := s.col.Metrics()
	if s.srv != nil {
		s.srv.BindMetrics(reg)
	}
	if s.vol != nil {
		s.vol.BindMetrics(reg)
	} else {
		s.rig.Driver.BindMetrics(reg)
		if s.sched != nil {
			s.sched.BindMetrics(reg)
		}
	}
	for i, f := range s.fs {
		if name := s.mounts[i].name; name != "" {
			f.BindMetrics(reg, metrics.Label{Key: "fs", Value: name})
		} else {
			f.BindMetrics(reg)
		}
	}
	for _, b := range extra {
		b.BindMetrics(reg)
	}
	if s.vol != nil {
		for i, m := range s.members {
			m.Driver.BindMetrics(reg, metrics.Label{Key: "disk", Value: strconv.Itoa(i)})
		}
	}
}

// finish records the job's engine event count and disarms the volume's
// scrub ticker. Execute defers it.
func (s *stack) finish() {
	s.col.SetEngineEvents(s.otherEvents + s.eng.Dispatched())
	if s.vol != nil {
		s.vol.Close()
	}
}
