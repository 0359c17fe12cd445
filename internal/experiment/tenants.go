package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/rig"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

// This file is the tenant-scale extension: the multi-tenant
// server front end (internal/server) driven by the open-loop
// heavy-tailed tenant workload over a single disk or a mirror. The
// matrix sweeps the tenant population 1k→1M, contrasts QoS admission on
// and off under a noisy neighbor, and kills a mirror member mid-run to
// exercise the circuit breaker. There is no file system in this stack:
// tenants issue block-level requests, the way a disaggregated-storage
// front end sees them.

// TenantPoint is what the server front end of a run measured.
type TenantPoint struct {
	// Issued and Failed are the client's view: requests put on the
	// wire and responses carrying any error.
	Issued int64
	Failed int64
	// Server holds the server's lifetime counters; Breaker its
	// transition counts; Classes the per-class outcome summaries.
	Server  server.Counters
	Breaker server.BreakerCounts
	Classes []server.ClassStat
}

// registerTenantProbes registers the sampler columns of the server
// stack: accept-queue state, breaker position, and shed counts.
func registerTenantProbes(col *telemetry.Collector, eng *sim.Engine, members []*rig.Rig, srv *server.Server) {
	col.AddProbe("accept_queue", func() float64 { return float64(srv.QueueLen()) })
	col.AddProbe("inflight", func() float64 { return float64(srv.InFlight()) })
	col.AddProbe("breaker_state", func() float64 { return float64(srv.Breaker().State(eng.Now())) })
	col.AddProbe("throttled", func() float64 { return float64(srv.Counters().Throttled) })
	col.AddProbe("shed", func() float64 {
		c := srv.Counters()
		return float64(c.Overloaded + c.BreakerRejects)
	})
	col.AddProbe("deadline_miss", func() float64 {
		c := srv.Counters()
		return float64(c.DeadlineMiss + c.Expired)
	})
	for i, m := range members {
		drv := m.Driver
		col.AddProbe(fmt.Sprintf("disk%d_qd", i), func() float64 {
			return float64(drv.QueueLen())
		})
	}
}

// tenantConfigs is the tenant-scale matrix: the population sweep, the
// noisy-neighbor pair, and the mirror-member-death breaker scenario.
// Options.Tenants collapses the sweep to one population (abrsim
// -tenants) and resizes the other rows; -net-lat/-net-bw/-qos override
// every row's link and admission settings.
func tenantConfigs(o Options) []Experiment {
	row := func(name string, tenants int, qosOff bool) Experiment {
		if o.Tenants > 0 {
			tenants = o.Tenants
		}
		if name == "" {
			name = fmt.Sprintf("tenants-%d", tenants)
		}
		if o.QoS != "" {
			qosOff = o.QoS == "off"
		}
		return Experiment{
			Name:     name,
			Server:   &Frontend{QoSOff: qosOff, NetLatencyMS: o.NetLatencyMS, NetBandwidthMBps: o.NetBandwidthMBps},
			Workload: Workload{Source: Tenants, Tenants: tenants},
			WindowMS: o.WindowMS, Seed: o.Seed,
		}
	}
	var out []Experiment
	counts := []int{1_000, 10_000, 100_000, 1_000_000}
	if o.Tenants > 0 {
		counts = counts[:1] // row pins the population anyway
	}
	for _, n := range counts {
		out = append(out, row("", n, false))
	}
	noisy := row("noisy-qos", 10_000, false)
	noisy.Workload.Noisy = true
	open := row("noisy-open", 10_000, true)
	open.Workload.Noisy = true
	// The breaker scenario: a two-member mirror loses member 1 early in
	// the run. The arrival rate is set above a single member's service
	// capacity, so after the death the survivor's queue grows without
	// bound, deadlines start missing, and the breaker cycles
	// open/half-open/closed while admission sheds the excess.
	death := row("mirror-death", 100_000, false)
	death.Devices = Devices{
		Layout: volume.Mirror, Disks: 2,
		Faults: []*fault.Plan{nil, {Seed: 7, CrashAfterOps: 2000}},
	}
	death.Workload.RatePerSec, death.Workload.ReadFrac = 60, 0.9
	return append(out, noisy, open, death)
}

// TenantReport renders the tenant-scale matrix: the per-configuration
// summary, then the per-class breakdown whose p99/p999 columns are the
// experiment's QoS evidence.
func TenantReport(points []*Run) []Renderable {
	rep := &Report{
		ID:      "tenant-scale",
		Title:   "Extension: multi-tenant server front end (open-loop tenants over a simulated network)",
		Columns: []string{"Config", "Tenants", "Backend", "QoS", "Issued", "OK", "Thr", "Shed", "Exp", "Miss", "Retry", "Brk o/h/c", "Degr", "Dead"},
	}
	var nQoS, nOpen []server.ClassStat
	for _, p := range points {
		e, t, c := p.Experiment, p.Server, p.Server.Server
		backend := string(e.Devices.Layout)
		if e.Devices.Layout != volume.Mirror {
			backend = fmt.Sprintf("%s-%d", e.Devices.Layout, e.Devices.Disks)
		}
		rep.AddRow(e.Name, fmt.Sprintf("%d", e.Workload.Tenants), backend, key(!e.Server.QoSOff),
			fmt.Sprintf("%d", t.Issued), fmt.Sprintf("%d", c.Completed),
			fmt.Sprintf("%d", c.Throttled), fmt.Sprintf("%d", c.Overloaded+c.BreakerRejects),
			fmt.Sprintf("%d", c.Expired), fmt.Sprintf("%d", c.DeadlineMiss),
			fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d/%d/%d", t.Breaker.Opened, t.Breaker.HalfOpened, t.Breaker.Closed),
			fmt.Sprintf("%d", p.Volume.Degraded), fmt.Sprintf("%d", p.Volume.DeadMembers))
		switch e.Name {
		case "noisy-qos":
			nQoS = t.Classes
		case "noisy-open":
			nOpen = t.Classes
		}
		if t.Breaker.Opened > 0 {
			rep.AddNote("%s: breaker opened %d time(s), half-opened %d, closed %d while %d member(s) died",
				e.Name, t.Breaker.Opened, t.Breaker.HalfOpened, t.Breaker.Closed, p.Volume.DeadMembers)
		}
	}
	if g, o := classByName(nQoS, "gold"), classByName(nOpen, "gold"); g.Submitted > 0 && o.Submitted > 0 {
		rep.AddNote("noisy neighbor: with QoS the flooding tenant is throttled and gold p99 is %.1f ms; without it gold p99 is %.1f ms",
			g.P99, o.P99)
	}
	rep.AddNote("open-loop arrivals: load does not slow down when the server queues, so overload shows up as shed/expired requests, not longer think times")

	cls := &Report{
		ID:      "tenant-scale",
		Title:   "Per-class outcomes (end-to-end latency over answered admitted requests)",
		Columns: []string{"Config", "Class", "Submitted", "Throttled", "OK", "p50 (ms)", "p99 (ms)", "p999 (ms)"},
	}
	for _, p := range points {
		for _, st := range p.Server.Classes {
			cls.AddRow(p.Experiment.Name, st.Name, fmt.Sprintf("%d", st.Submitted),
				fmt.Sprintf("%d", st.Throttled), fmt.Sprintf("%d", st.Completed),
				f2(st.P50), f2(st.P99), f2(st.P999))
		}
	}
	return []Renderable{rep, cls}
}

// classByName finds a class summary by name (zero value if absent).
func classByName(stats []server.ClassStat, name string) server.ClassStat {
	for _, st := range stats {
		if st.Name == name {
			return st
		}
	}
	return server.ClassStat{}
}
