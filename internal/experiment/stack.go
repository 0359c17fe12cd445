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
// multi-partition stack apart: it labels the mount's metrics fs="name".
type mount struct {
	name   string
	params fs.Params
}

// stackSpec describes a stack, bottom up.
type stackSpec struct {
	// Exactly one of rig and volume describes the devices; the stack
	// fills their Ctx and Telemetry.
	rig    *rig.Options
	volume *volume.Options
	// mounts lists one file system per partition, in partition order;
	// none leaves the raw block path.
	mounts []mount
	// server, when set, puts the multi-tenant front end on the device.
	server *server.Config
	// rearrange, when set, gives every member disk a rearranger of this
	// configuration: each learns from its own request table and
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
	// dev is the block device the workload drives — the rig's driver
	// or the volume — and blocks its size in blocks: partition 0's on a
	// single disk.
	dev    driver.BlockDevice
	blocks int64
	mounts []mount
	fs     []*fs.FS // by partition
	srv    *server.Server
	rears  []*core.Rearranger // by member
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
	if d.rig != nil {
		o := *d.rig
		o.Ctx, o.Telemetry = ctx, s.col
		r, err := rig.New(o)
		if err != nil {
			return nil, err
		}
		s.rig, s.eng, s.members = r, r.Eng, []*rig.Rig{r}
		s.dev, s.blocks = r.Driver, r.PartitionBlocks(0)
	} else {
		o := *d.volume
		o.Ctx, o.Telemetry = ctx, s.col
		v, err := volume.New(o)
		if err != nil {
			return nil, err
		}
		s.vol, s.eng, s.members = v, v.Eng, v.Members
		s.dev, s.blocks = v, v.Blocks()
	}
	// The rearrangers come before the format: each gives its driver
	// the request table, which records everything from here on, so day
	// 0's counts include the format's and populate's writes
	// (EXPERIMENTS.md D6).
	if d.rearrange != nil {
		for i, m := range s.members {
			rear, err := core.New(s.eng, m.Driver, *d.rearrange)
			if err != nil {
				return nil, fmt.Errorf("experiment: member %d rearranger: %w", i, err)
			}
			s.rears = append(s.rears, rear)
		}
	}
	for part, m := range d.mounts {
		f, err := fs.Newfs(s.eng, s.dev, part, m.params)
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
		if s.srv, err = server.New(s.eng, s.dev, *d.server); err != nil {
			return nil, err
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

// runDays is the paper's measurement protocol (§5) over the run's
// days. Each day: run to the day's start, open a measured window, let
// before (if any) begin, run the day's workload monitored, close the
// window as the day, let after (if any) end; overnight, rearrange if
// the next day is an on-day, else clean. It records the blocks each
// rearrangement installed in run.Installed.
func (s *stack) runDays(run *Run, runDay func(day int, done func(error)), before, after func(day int)) error {
	e := run.Experiment
	for day := 0; day < e.Days; day++ {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		dayStart := float64(float64(day)*workload.DayMS) + workload.DayStartMS
		s.eng.RunUntil(dayStart)
		s.openWindow(run)
		if before != nil {
			before(day)
		}
		err := s.monitored(fmt.Sprintf("day %d", day), dayStart+e.WindowMS+30*60*1000,
			func(done func(error)) { runDay(day, done) })
		if err != nil {
			return err
		}
		s.closeWindow(run, DayResult{Day: day, On: isOnDay(e, day)})
		if after != nil {
			after(day)
		}
		if day+1 < e.Days {
			onNext := e.OnPattern(day + 1)
			n, err := s.rearrange(onNext, fmt.Sprintf("after day %d", day))
			if err != nil {
				return err
			}
			if onNext {
				run.Installed = append(run.Installed, n)
			}
		}
		for _, rear := range s.rears {
			rear.ResetCounts()
		}
	}
	return nil
}

// metricsBinder is a workload or replayer with instruments of its own.
type metricsBinder interface{ BindMetrics(*metrics.Registry) }

// observe turns on what the job's collector asked for: it binds the
// job's registry, then starts the sampler, whose columns are the
// registry's counters and gauges. Call it after populate, so the
// distributions and the time series cover only measured traffic.
//
// The registry is bound top down — server, device, file systems, the
// extra binders — and then, under a volume, every member's driver and
// rearranger under a disk="i" label in member-index order.
func (s *stack) observe(extra ...metricsBinder) {
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
		for _, rear := range s.rears {
			rear.BindMetrics(reg)
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
			disk := metrics.Label{Key: "disk", Value: strconv.Itoa(i)}
			m.Driver.BindMetrics(reg, disk)
			if s.rears != nil {
				s.rears[i].BindMetrics(reg, disk)
			}
		}
	}
	s.col.StartSampler(s.eng)
}

// finish records the job's engine event count and disarms the volume's
// scrub ticker. Execute defers it.
func (s *stack) finish() {
	s.col.SetEngineEvents(s.otherEvents + s.eng.Dispatched())
	if s.vol != nil {
		s.vol.Close()
	}
}
