package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/volume"
)

// This file is the multi-disk scale-out extension: the system
// workload driven over a logical volume of 1–8 member disks, measuring
// how throughput and response time scale with spindle count, stripe
// unit, mirror read policy, per-member adaptive rearrangement, and
// degraded (one-member-dead) operation. The paper evaluates one
// spindle; its own deployment — two file systems serving ~40 users —
// already implies the scale-out question this answers.

// VolumePoint is what the volume layer of a run measured.
type VolumePoint struct {
	// Requests counts volume-level block requests over the measured
	// windows; Throughput is requests per simulated second.
	Requests   int64
	Throughput float64
	// MeanRespMS is the volume-level mean response time (request entry
	// to fan-in completion).
	MeanRespMS float64
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

	respMSSum float64
}

// add accumulates one measured window's statistics.
func (p *VolumePoint) add(vs volume.Stats) {
	p.Requests += vs.Requests
	p.respMSSum += vs.RespMSSum
	p.Degraded += vs.Degraded
}

// finish derives the means over simSec measured seconds and reads the
// volume's end-of-run state.
func (p *VolumePoint) finish(v *volume.Volume, simSec float64) {
	if p.Requests > 0 {
		p.MeanRespMS = p.respMSSum / float64(p.Requests)
	}
	if simSec > 0 {
		p.Throughput = float64(p.Requests) / simSec
	}
	p.DeadMembers = v.DeadMembers()
	p.RAID = v.RAID()
	p.SparesLeft = v.Spares()
}

// saturated is one row of a volume matrix: the saturating system
// workload on the given devices, every night an on-night — a row either
// rearranges every member after every day or has no rearrangers at all.
func (o Options) saturated(name string, days int, d Devices) Experiment {
	return Experiment{
		Name: name, Devices: d,
		Workload: Workload{Source: System, Saturate: true},
		Days:     o.days(days), OnPattern: everyDayAfterWarmup, WindowMS: o.WindowMS, Seed: o.Seed,
	}
}

// volumeConfigs is the volume-scale configuration matrix: disk-count
// scaling, the stripe-unit sweep, the mirror read-policy comparison,
// per-member rearrangement, and degraded-mirror operation.
func volumeConfigs(o Options) []Experiment {
	stripe := func(name string, disks, unit int) Experiment {
		return o.saturated(name, 2, Devices{Layout: volume.Stripe, Disks: disks, StripeUnit: unit})
	}
	mirror := func(name string, policy volume.ReadPolicy) Experiment {
		return o.saturated(name, 2, Devices{Layout: volume.Mirror, Disks: 2, ReadPolicy: policy})
	}
	rearr := stripe("disks-4-rearr", 4, 16)
	rearr.Rearrange = &Rearrange{}
	degraded := mirror("mirror-degraded", volume.RoundRobin)
	// Member 1 dies a few thousand device operations into day 0; the
	// mirror must finish the run on member 0 alone.
	degraded.Devices.Faults = []*fault.Plan{nil, {Seed: 7, CrashAfterOps: 4000}}
	return []Experiment{
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

// VolumeReport renders the volume-scale matrix.
func VolumeReport(points []*Run) *Report {
	rep := &Report{
		ID:      "volume-scale",
		Title:   "Extension: scale-out across disks (system workload on a logical volume, Toshiba members)",
		Columns: []string{"Config", "Layout", "Disks", "Unit", "Read policy", "Rearr", "Requests", "Req/s", "Resp (ms)", "Degraded", "Dead", "FS errors"},
	}
	var single, quad *VolumePoint
	for _, p := range points {
		d, v := p.Experiment.Devices, p.Volume
		unit, policy := "-", "-"
		if d.Layout == volume.Stripe {
			unit = fmt.Sprintf("%d", d.StripeUnit)
		}
		if d.Layout == volume.Mirror {
			policy = string(d.ReadPolicy)
		}
		rep.AddRow(p.Experiment.Name, string(d.Layout), fmt.Sprintf("%d", d.Disks), unit, policy, key(p.Experiment.Rearrange != nil),
			fmt.Sprintf("%d", v.Requests), f1(v.Throughput), f2(v.MeanRespMS),
			fmt.Sprintf("%d", v.Degraded), fmt.Sprintf("%d", v.DeadMembers),
			fmt.Sprintf("%d", p.WorkloadErrors))
		switch p.Experiment.Name {
		case "disks-1":
			single = v
		case "disks-4":
			quad = v
		}
	}
	if single != nil && quad != nil && single.Throughput > 0 && quad.Throughput > 0 {
		rep.AddNote("4-disk stripe sustains %.2fx the single-disk throughput at %.0f%% of its response time (closed-loop clients: gains appear as both higher throughput and lower latency)",
			quad.Throughput/single.Throughput, 100*quad.MeanRespMS/single.MeanRespMS)
	}
	for _, p := range points {
		if v := p.Volume; v.DeadMembers > 0 {
			rep.AddNote("%s finished with %d dead member(s): %d requests served degraded, %d file operations failed",
				p.Experiment.Name, v.DeadMembers, v.Degraded, p.WorkloadErrors)
		}
	}
	rep.AddNote("clients are deliberately heavier than the paper's (48 clients, 250 ms think) so a single member saturates and spindle count is the bottleneck under test")
	return rep
}
