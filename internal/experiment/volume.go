package experiment

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/rig"
	"repro/internal/telemetry"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file registers the multi-disk scale-out extension: the system
// workload driven over a logical volume of 1–8 member disks, measuring
// how throughput and response time scale with spindle count, stripe
// unit, mirror read policy, per-member adaptive rearrangement, and
// degraded (one-member-dead) operation. The paper evaluates one
// spindle; its own deployment — two file systems serving ~40 users —
// already implies the scale-out question this answers.

// VolumeSetup describes one multi-day volume experiment.
type VolumeSetup struct {
	// Config is the short row label ("disks-4", "mirror-sq", ...).
	Config string
	// Layout, Disks, StripeUnit and ReadPolicy configure the volume.
	Layout     volume.Layout
	Disks      int
	StripeUnit int
	ReadPolicy volume.ReadPolicy
	// Spare, RebuildRate and ScrubIntervalMS configure the parity
	// layouts' hot spares, rebuild throttle, and scrub daemon
	// (volume.Options); zeros keep the volume defaults (no spare, 200
	// blocks/s, no scrub).
	Spare           int
	RebuildRate     float64
	ScrubIntervalMS float64
	// Rearrange runs a per-member adaptive rearranger, rearranging
	// every member overnight (after day 0) from its own monitoring
	// table.
	Rearrange bool
	// Faults lists per-member fault plans (volume.Options.Faults).
	Faults []*fault.Plan
	// Days, WindowMS and Seed are as in Setup; zeros select 2 days,
	// the full 7am–10pm window, and seed 1.
	Days     int
	WindowMS float64
	Seed     uint64
	// Clients and ThinkMeanMS configure the closed-loop client pool.
	// The defaults (48 clients thinking 250 ms) are deliberately much
	// heavier than the paper's 14 clients / 15 s: a think-time-limited
	// load would hide the spindle count, and the point of this
	// experiment is to saturate one disk so the scaling is visible.
	Clients     int
	ThinkMeanMS float64
}

func (s VolumeSetup) withDefaults() VolumeSetup {
	if s.Disks <= 0 {
		s.Disks = 1
	}
	if s.Layout == "" {
		s.Layout = volume.Stripe
	}
	if s.Days <= 0 {
		s.Days = 2
	}
	if s.WindowMS <= 0 {
		s.WindowMS = workload.DayEndMS - workload.DayStartMS
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Clients <= 0 {
		s.Clients = 48
	}
	if s.ThinkMeanMS <= 0 {
		s.ThinkMeanMS = 250
	}
	if s.Config == "" {
		s.Config = fmt.Sprintf("%s-%d", s.Layout, s.Disks)
	}
	return s
}

// VolumePoint is the outcome of one volume configuration's run.
type VolumePoint struct {
	// Config through Rearrange echo the setup.
	Config     string
	Layout     string
	Disks      int
	StripeUnit int
	Policy     string
	Rearrange  bool
	// Requests counts volume-level block requests over the measured
	// windows; Throughput is requests per simulated second.
	Requests   int64
	Throughput float64
	// MeanRespMS is the volume-level mean response time (request entry
	// to fan-in completion).
	MeanRespMS float64
	// PerDisk counts member operations by disk index.
	PerDisk []int64
	// Degraded counts redundant requests served with a member missing;
	// DeadMembers is how many members had died by the end of the run.
	Degraded    int64
	DeadMembers int
	// RAID carries the parity layouts' cumulative counters (degraded
	// reads, parity recomputes, rebuild and scrub progress); zero for
	// the non-parity layouts. SparesLeft is how many hot spares remain
	// unconsumed at the end of the run.
	RAID       volume.RAIDStats
	SparesLeft int
	// Installed sums the blocks installed by per-member rearrangements.
	Installed int
	// WorkloadErrors counts failed file operations.
	WorkloadErrors int64
}

// ExecuteVolume runs one volume configuration to completion. Like
// Execute it builds a fully self-contained stack per call, so the
// parallel runner can execute configurations concurrently.
func ExecuteVolume(ctx context.Context, s VolumeSetup) (*VolumePoint, error) {
	s = s.withDefaults()
	spec := stackSpec{
		volume: &volume.Options{
			Layout:     s.Layout,
			Disks:      s.Disks,
			StripeUnit: s.StripeUnit,
			ReadPolicy: s.ReadPolicy,
			// Members always carry the Toshiba reserved region so layouts
			// are geometry-identical whether or not rearrangement runs.
			ReservedCyls:    48,
			Spare:           s.Spare,
			RebuildRate:     s.RebuildRate,
			ScrubIntervalMS: s.ScrubIntervalMS,
			Faults:          s.Faults,
		},
		// The volume matrix is a throughput benchmark: mount noatime (else
		// the heavy client pool spends the run re-encoding inode blocks for
		// atime bookkeeping) and keep the data cache small so most reads
		// miss and the member disks stay the bottleneck under test.
		mounts: []mount{{params: fs.Params{
			NoAtime: true,
			Cache: cache.Config{
				CapacityBlocks:   128,
				PressurePeriodMS: 60_000,
				PressureFrac:     0.10,
				Seed:             s.Seed,
			},
			MetaCache: cache.Config{CapacityBlocks: 256, SyncPeriodMS: 5_000},
		}}},
	}
	if s.Rearrange {
		spec.rearrange = &core.Config{MaxBlocks: toshibaSlots}
	}
	st, err := newStack(ctx, spec)
	if err != nil {
		return nil, err
	}
	defer st.finish()
	v := st.vol

	w := workload.NewSystem(st.eng, st.fs[0], workload.SystemConfig{
		Clients:     s.Clients,
		ThinkMeanMS: s.ThinkMeanMS,
		WindowMS:    s.WindowMS,
		Seed:        s.Seed,
	})
	if err := st.await("populate", workload.DayStartMS, w.Populate); err != nil {
		return nil, err
	}
	st.observe(w)

	pt := &VolumePoint{
		Config:     s.Config,
		Layout:     string(s.Layout),
		Disks:      s.Disks,
		StripeUnit: s.StripeUnit,
		Policy:     string(s.ReadPolicy),
		Rearrange:  s.Rearrange,
		PerDisk:    make([]int64, s.Disks+s.Spare), // spare rigs count too
	}
	// Every night is an on-night: a row either rearranges every member
	// after every day or has no rearrangers at all.
	installed, err := st.runDays(s.Days, s.WindowMS, func(int) bool { return true }, w.RunDay,
		func(int) { v.ResetStats() }, // discard overnight / populate traffic
		func(int) {
			vs := v.Stats()
			pt.Requests += vs.Requests
			pt.MeanRespMS += vs.RespMSSum // normalized after the loop
			pt.Degraded += vs.Degraded
			for i, n := range vs.PerDisk {
				pt.PerDisk[i] += n
			}
		})
	if err != nil {
		return nil, err
	}
	for _, n := range installed {
		pt.Installed += n
	}
	if pt.Requests > 0 {
		pt.MeanRespMS /= float64(pt.Requests)
	}
	simSec := float64(s.Days) * s.WindowMS / 1000
	if simSec > 0 {
		pt.Throughput = float64(pt.Requests) / simSec
	}
	pt.DeadMembers = v.DeadMembers()
	pt.RAID = v.RAID()
	pt.SparesLeft = v.Spares()
	pt.WorkloadErrors = w.Errors()
	return pt, nil
}

// registerVolumeProbes registers the volume stack's sampler columns:
// aggregate queue state, then per-member queue depth and — on members
// with a fault injector — per-disk fault counters, the columns
// abrreport -telemetry reports per disk.
func registerVolumeProbes(col *telemetry.Collector, members []*rig.Rig) {
	col.AddProbe("queue_depth", func() float64 {
		var n int
		for _, m := range members {
			n += m.Driver.QueueLen()
		}
		return float64(n)
	})
	col.AddProbe("outstanding", func() float64 {
		var n int
		for _, m := range members {
			n += m.Driver.Outstanding()
		}
		return float64(n)
	})
	for i, m := range members {
		drv := m.Driver
		col.AddProbe(fmt.Sprintf("disk%d_qd", i), func() float64 {
			return float64(drv.QueueLen())
		})
		if m.Faults != nil {
			registerFaultProbes(col, fmt.Sprintf("disk%d_", i), drv)
		}
	}
}

// volumeConfigs is the volume-scale configuration matrix: disk-count
// scaling, the stripe-unit sweep, the mirror read-policy comparison,
// per-member rearrangement, and degraded-mirror operation.
func volumeConfigs(o Options) []VolumeSetup {
	days := o.days(2)
	base := func(cfg string) VolumeSetup {
		return VolumeSetup{Config: cfg, Days: days, WindowMS: o.WindowMS, Seed: o.Seed}
	}
	stripe := func(cfg string, disks, unit int) VolumeSetup {
		s := base(cfg)
		s.Layout, s.Disks, s.StripeUnit = volume.Stripe, disks, unit
		return s
	}
	mirror := func(cfg string, policy volume.ReadPolicy) VolumeSetup {
		s := base(cfg)
		s.Layout, s.Disks, s.ReadPolicy = volume.Mirror, 2, policy
		return s
	}
	rearr := stripe("disks-4-rearr", 4, 16)
	rearr.Rearrange = true
	degraded := mirror("mirror-degraded", volume.RoundRobin)
	// Member 1 dies a few thousand device operations into day 0; the
	// mirror must finish the run on member 0 alone.
	degraded.Faults = []*fault.Plan{nil, {Seed: 7, CrashAfterOps: 4000}}
	return []VolumeSetup{
		stripe("disks-1", 1, 16),
		stripe("disks-2", 2, 16),
		stripe("disks-4", 4, 16),
		stripe("disks-8", 8, 16),
		stripe("unit-4", 4, 4),
		stripe("unit-64", 4, 64),
		mirror("mirror-rr", volume.RoundRobin),
		mirror("mirror-sq", volume.ShortestQueue),
		rearr,
		degraded,
	}
}

// volumeUnits decomposes the volume-scale matrix into one independent
// run per configuration.
func volumeUnits(o Options) []unit {
	return matrixUnits(volumeConfigs(o),
		func(s VolumeSetup) (string, float64) { return "volume/" + s.Config, float64(s.Days) },
		ExecuteVolume,
		func(rs *ResultSet, _ VolumeSetup, pt *VolumePoint) { rs.Volume = append(rs.Volume, *pt) })
}

// VolumeReport renders the volume-scale matrix.
func VolumeReport(points []VolumePoint) *Report {
	rep := &Report{
		ID:      "volume-scale",
		Title:   "Extension: scale-out across disks (system workload on a logical volume, Toshiba members)",
		Columns: []string{"Config", "Layout", "Disks", "Unit", "Read policy", "Rearr", "Requests", "Req/s", "Resp (ms)", "Degraded", "Dead", "FS errors"},
	}
	var single, quad VolumePoint
	for _, p := range points {
		unit, policy, rearr := "-", "-", "off"
		if p.Layout == string(volume.Stripe) {
			unit = fmt.Sprintf("%d", p.StripeUnit)
		}
		if p.Layout == string(volume.Mirror) {
			policy = p.Policy
		}
		if p.Rearrange {
			rearr = "on"
		}
		rep.AddRow(p.Config, p.Layout, fmt.Sprintf("%d", p.Disks), unit, policy, rearr,
			fmt.Sprintf("%d", p.Requests), f1(p.Throughput), f2(p.MeanRespMS),
			fmt.Sprintf("%d", p.Degraded), fmt.Sprintf("%d", p.DeadMembers),
			fmt.Sprintf("%d", p.WorkloadErrors))
		switch p.Config {
		case "disks-1":
			single = p
		case "disks-4":
			quad = p
		}
	}
	if single.Throughput > 0 && quad.Throughput > 0 {
		rep.AddNote("4-disk stripe sustains %.2fx the single-disk throughput at %.0f%% of its response time (closed-loop clients: gains appear as both higher throughput and lower latency)",
			quad.Throughput/single.Throughput, 100*quad.MeanRespMS/single.MeanRespMS)
	}
	for _, p := range points {
		if p.DeadMembers > 0 {
			rep.AddNote("%s finished with %d dead member(s): %d requests served degraded, %d file operations failed",
				p.Config, p.DeadMembers, p.Degraded, p.WorkloadErrors)
		}
	}
	rep.AddNote("clients are deliberately heavier than the paper's (48 clients, 250 ms think) so a single member saturates and spindle count is the bottleneck under test")
	return rep
}

// registerVolume registers the volume-scale extension experiment.
func registerVolume() {
	Register(Spec{
		ID: "volume-scale", Description: "extension: throughput and response time scaling across multi-disk volumes",
		Needs: []Need{NeedVolume},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{VolumeReport(rs.Volume)}
		},
	})
}
