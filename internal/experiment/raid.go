package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file is the parity-layout extension: the system workload
// driven over RAID-5 and RAID-6 volumes, measuring the parity layouts
// end to end — healthy small-write cost, degraded operation after
// member death, throttled hot-spare rebuild under foreground load, the
// double-fault budget of P+Q, and the scrub daemon repairing a planted
// latent sector error. The rows are volume-scale's kind of experiment;
// only the devices differ.

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
	e, err := Experiment{Devices: Devices{Layout: layout, Disks: disks, StripeUnit: unit}}.withDefaults()
	if err != nil {
		panic("experiment: latent-error scout volume: " + err.Error())
	}
	v, err := volume.New(e.volumeOptions())
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
func raidConfigs(o Options) []Experiment {
	// One day per row: unlike volume-scale there is no rearrangement in
	// the matrix (nothing needs an on-day after a baseline day), and
	// every demonstration — the kill, the rebuild, the scrub passes —
	// completes inside day 0, so a second day would only double the
	// battery's wall clock.
	row := func(name string, layout volume.Layout, disks int, d Devices) Experiment {
		d.Layout, d.Disks, d.StripeUnit = layout, disks, 16
		return o.saturated(name, 1, d)
	}
	if o.RAIDLayout != "" {
		layout := volume.Layout(o.RAIDLayout)
		disks := 4
		if layout == volume.RAID6 {
			disks = 5
		}
		// Member 1 dies a few thousand operations into day 0, so the
		// custom row always demonstrates degraded service — and, when a
		// spare was requested, the rebuild.
		return []Experiment{row("custom-"+o.RAIDLayout, layout, disks, Devices{
			Spare: o.RAIDSpare, RebuildRate: o.RebuildRate, ScrubIntervalMS: o.ScrubIntervalMS,
			Faults: killPlan(disks+o.RAIDSpare, 1, 4000),
		})}
	}
	double := killPlan(5, 1, 4000)
	double[2] = &fault.Plan{Seed: 7, CrashAfterOps: 9000}
	return []Experiment{
		row("raid5-4", volume.RAID5, 4, Devices{}),
		row("raid5-degraded", volume.RAID5, 4, Devices{Faults: killPlan(4, 1, 4000)}),
		row("raid5-rebuild", volume.RAID5, 4, Devices{Spare: 1, RebuildRate: 2000, Faults: killPlan(5, 1, 4000)}),
		row("raid5-scrub", volume.RAID5, 4, Devices{
			RebuildRate: 2000, ScrubIntervalMS: 6 * workload.HourMS,
			Faults: []*fault.Plan{{Seed: 11, Bad: latentBadRange(volume.RAID5, 4, 16)}},
		}),
		row("raid6-6", volume.RAID6, 6, Devices{}),
		row("raid6-double", volume.RAID6, 5, Devices{Faults: double}),
	}
}

// RAIDReport renders the parity-layout matrix.
func RAIDReport(points []*Run) *Report {
	rep := &Report{
		ID:    "raid-rebuild",
		Title: "Extension: RAID-5/6 parity layouts — degraded reads, hot-spare rebuild, latent-error scrub",
		Columns: []string{"Config", "Layout", "Disks", "Spare", "Requests", "Req/s", "Resp (ms)",
			"Degr reads", "Parity RW", "Rebuilt", "Rebuild (s)", "Scrub fix", "Dead", "FS errors"},
	}
	for _, p := range points {
		e, v := p.Experiment, p.Volume
		rep.AddRow(e.Name, string(e.Devices.Layout), fmt.Sprintf("%d", e.Devices.Disks), fmt.Sprintf("%d", v.SparesLeft),
			fmt.Sprintf("%d", v.Requests), f1(v.Throughput), f2(v.MeanRespMS),
			fmt.Sprintf("%d", v.RAID.DegradedReads), fmt.Sprintf("%d", v.RAID.ParityRecomputes),
			fmt.Sprintf("%d", v.RAID.RebuiltBlocks), f1(v.RAID.RebuildMS/1000),
			fmt.Sprintf("%d", v.RAID.ScrubRepairs),
			fmt.Sprintf("%d", v.DeadMembers), fmt.Sprintf("%d", p.WorkloadErrors))
	}
	for _, p := range points {
		name, v := p.Experiment.Name, p.Volume
		if v.RAID.RebuildsDone > 0 {
			rep.AddNote("%s: %d member death(s) absorbed — rebuild copied %d blocks onto the hot spare in %.0f s of simulated time while the workload kept running",
				name, v.DeadMembers, v.RAID.RebuiltBlocks, v.RAID.RebuildMS/1000)
		}
		if v.RAID.ScrubRepairs > 0 {
			rep.AddNote("%s: scrub completed %d pass(es) and repaired %d latent sector error(s) before any foreground read hit them",
				name, v.RAID.ScrubPasses, v.RAID.ScrubRepairs)
		}
		if v.RAID.Unrecoverable > 0 {
			rep.AddNote("%s: %d block(s) were unrecoverable (losses exceeded the parity budget)",
				name, v.RAID.Unrecoverable)
		}
	}
	rep.AddNote("every write pays the parity read-modify-write; degraded reads reconstruct from the survivors, so a dead member costs latency but no data")
	return rep
}
