package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file registers the parity-layout extension: the system workload
// driven over RAID-5 and RAID-6 volumes, measuring the parity layouts
// end to end — healthy small-write cost, degraded operation after
// member death, throttled hot-spare rebuild under foreground load, the
// double-fault budget of P+Q, and the scrub daemon repairing a planted
// latent sector error. The rows reuse the VolumeSetup/ExecuteVolume
// machinery; only the configurations differ.

// killPlan builds an n-member fault list whose member m crashes after
// ops device operations.
func killPlan(n, m int, ops int64) []*fault.Plan {
	plans := make([]*fault.Plan, n)
	plans[m] = &fault.Plan{Seed: 7, CrashAfterOps: ops}
	return plans
}

// latentBadRange computes a physical sector range on member 0 holding
// one high member block: the planted latent sector error the scrub row
// repairs. A scout volume with the row's geometry provides the label
// mapping; the block sits at the top of the scrubbed range, far above
// anything the day's files reach, so only the scrub pass ever touches
// it.
func latentBadRange(layout volume.Layout, disks, unit int) []fault.SectorRange {
	v, err := volume.New(volume.Options{Layout: layout, Disks: disks, StripeUnit: unit, ReservedCyls: 48})
	if err != nil {
		panic("experiment: latent-error scout volume: " + err.Error())
	}
	defer v.Close()
	drv := v.Members[0].Driver
	p, err := drv.Label().Partition(0)
	if err != nil {
		panic("experiment: latent-error scout partition: " + err.Error())
	}
	bsec := int64(v.BlockSize().Sectors())
	per := (p.Size / bsec) / int64(unit) * int64(unit) // member blocks the layout uses
	mb := per - 7
	start := drv.Label().MapVirtual(p.Start + mb*bsec)
	return []fault.SectorRange{{Start: start, End: start + bsec}}
}

// raidConfigs is the parity-layout configuration matrix. -layout
// collapses it to one custom row built from the RAID* option fields;
// with the flag unset those fields are ignored, so the committed
// matrix (and its golden) is untouched by the flags' zero values.
func raidConfigs(o Options) []VolumeSetup {
	// One day per row: unlike volume-scale there is no rearrangement in
	// the matrix (nothing needs an on-day after a baseline day), and
	// every demonstration — the kill, the rebuild, the scrub passes —
	// completes inside day 0, so a second day would only double the
	// battery's wall clock.
	days := o.days(1)
	base := func(cfg string, layout volume.Layout, disks int) VolumeSetup {
		return VolumeSetup{
			Config: cfg, Layout: layout, Disks: disks, StripeUnit: 16,
			Days: days, WindowMS: o.WindowMS, Seed: o.Seed,
		}
	}
	if o.RAIDLayout != "" {
		layout := volume.Layout(o.RAIDLayout)
		disks := 4
		if layout == volume.RAID6 {
			disks = 5
		}
		s := base("custom-"+o.RAIDLayout, layout, disks)
		s.Spare = o.RAIDSpare
		s.RebuildRate = o.RebuildRate
		s.ScrubIntervalMS = o.ScrubIntervalMS
		// Member 1 dies a few thousand operations into day 0, so the
		// custom row always demonstrates degraded service — and, when a
		// spare was requested, the rebuild.
		s.Faults = killPlan(disks+s.Spare, 1, 4000)
		return []VolumeSetup{s}
	}
	degraded := base("raid5-degraded", volume.RAID5, 4)
	degraded.Faults = killPlan(4, 1, 4000)
	rebuild := base("raid5-rebuild", volume.RAID5, 4)
	rebuild.Spare = 1
	rebuild.RebuildRate = 2000
	rebuild.Faults = killPlan(5, 1, 4000)
	scrub := base("raid5-scrub", volume.RAID5, 4)
	scrub.RebuildRate = 2000
	scrub.ScrubIntervalMS = 6 * workload.HourMS
	scrub.Faults = []*fault.Plan{{Seed: 11, Bad: latentBadRange(volume.RAID5, 4, 16)}}
	double := base("raid6-double", volume.RAID6, 5)
	double.Faults = killPlan(5, 1, 4000)
	double.Faults[2] = &fault.Plan{Seed: 7, CrashAfterOps: 9000}
	return []VolumeSetup{
		base("raid5-4", volume.RAID5, 4),
		degraded,
		rebuild,
		scrub,
		base("raid6-6", volume.RAID6, 6),
		double,
	}
}

// raidUnits decomposes the parity matrix into one independent run per
// configuration.
func raidUnits(o Options) []unit {
	return matrixUnits(raidConfigs(o),
		func(s VolumeSetup) (string, float64) { return "raid/" + s.Config, float64(s.Days) },
		ExecuteVolume,
		func(rs *ResultSet, _ VolumeSetup, pt *VolumePoint) { rs.RAID = append(rs.RAID, *pt) })
}

// RAIDReport renders the parity-layout matrix.
func RAIDReport(points []VolumePoint) *Report {
	rep := &Report{
		ID:    "raid-rebuild",
		Title: "Extension: RAID-5/6 parity layouts — degraded reads, hot-spare rebuild, latent-error scrub",
		Columns: []string{"Config", "Layout", "Disks", "Spare", "Requests", "Req/s", "Resp (ms)",
			"Degr reads", "Parity RW", "Rebuilt", "Rebuild (s)", "Scrub fix", "Dead", "FS errors"},
	}
	for _, p := range points {
		rep.AddRow(p.Config, p.Layout, fmt.Sprintf("%d", p.Disks), fmt.Sprintf("%d", p.SparesLeft),
			fmt.Sprintf("%d", p.Requests), f1(p.Throughput), f2(p.MeanRespMS),
			fmt.Sprintf("%d", p.RAID.DegradedReads), fmt.Sprintf("%d", p.RAID.ParityRecomputes),
			fmt.Sprintf("%d", p.RAID.RebuiltBlocks), f1(p.RAID.RebuildMS/1000),
			fmt.Sprintf("%d", p.RAID.ScrubRepairs),
			fmt.Sprintf("%d", p.DeadMembers), fmt.Sprintf("%d", p.WorkloadErrors))
	}
	for _, p := range points {
		if p.RAID.RebuildsDone > 0 {
			rep.AddNote("%s: %d member death(s) absorbed — rebuild copied %d blocks onto the hot spare in %.0f s of simulated time while the workload kept running",
				p.Config, p.DeadMembers, p.RAID.RebuiltBlocks, p.RAID.RebuildMS/1000)
		}
		if p.RAID.ScrubRepairs > 0 {
			rep.AddNote("%s: scrub completed %d pass(es) and repaired %d latent sector error(s) before any foreground read hit them",
				p.Config, p.RAID.ScrubPasses, p.RAID.ScrubRepairs)
		}
		if p.RAID.Unrecoverable > 0 {
			rep.AddNote("%s: %d block(s) were unrecoverable (losses exceeded the parity budget)",
				p.Config, p.RAID.Unrecoverable)
		}
	}
	rep.AddNote("every write pays the parity read-modify-write; degraded reads reconstruct from the survivors, so a dead member costs latency but no data")
	return rep
}

// registerRAID registers the parity-layout extension experiment.
func registerRAID() {
	Register(Spec{
		ID: "raid-rebuild", Description: "extension: RAID-5/6 parity layouts (degraded reads, hot-spare rebuild, scrub)",
		Needs: []Need{NeedRAID},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{RAIDReport(rs.RAID)}
		},
	})
}
