package experiment

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/rig"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file registers the tenant-scale extension: the multi-tenant
// server front end (internal/server) driven by the open-loop
// heavy-tailed tenant workload over a single disk or a mirror. The
// matrix sweeps the tenant population 1k→1M, contrasts QoS admission on
// and off under a noisy neighbor, and kills a mirror member mid-run to
// exercise the circuit breaker. There is no file system in this stack:
// tenants issue block-level requests, the way a disaggregated-storage
// front end sees them.

// TenantSetup describes one tenant-scale run.
type TenantSetup struct {
	// Config is the short row label ("tenants-100k", "noisy-qos", ...).
	Config string
	// Tenants is the tenant population.
	Tenants int
	// Layout and Disks configure the backend volume; zeros select a
	// single-disk concat.
	Layout volume.Layout
	Disks  int
	// QoSOff disables per-tenant token buckets.
	QoSOff bool
	// Noisy floods from tenant 2 (class bronze) at NoisyRate req/s.
	Noisy     bool
	NoisyRate float64
	// Faults lists per-member fault plans (volume.Options.Faults).
	Faults []*fault.Plan
	// DurationMS is the traffic window; zero selects one simulated
	// hour. RatePerSec is the aggregate arrival rate; zero selects 20.
	DurationMS float64
	RatePerSec float64
	// ReadFrac overrides the read fraction (zero = workload default).
	ReadFrac float64
	// NetLatencyMS and NetBandwidthMBps override the link model
	// (zeros = server defaults: 0.2 ms, 100 MB/s).
	NetLatencyMS     float64
	NetBandwidthMBps float64
	// Seed as in VolumeSetup.
	Seed uint64
}

func (s TenantSetup) withDefaults() TenantSetup {
	if s.Tenants <= 0 {
		s.Tenants = 10_000
	}
	if s.Layout == "" {
		s.Layout = volume.Concat
	}
	if s.Disks <= 0 {
		s.Disks = 1
	}
	if s.NoisyRate <= 0 {
		s.NoisyRate = 200
	}
	if s.DurationMS <= 0 {
		s.DurationMS = workload.HourMS
	}
	if s.RatePerSec <= 0 {
		s.RatePerSec = 20
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Config == "" {
		s.Config = fmt.Sprintf("tenants-%d", s.Tenants)
	}
	return s
}

// TenantPoint is the outcome of one tenant-scale run.
type TenantPoint struct {
	// Config through Noisy echo the setup.
	Config  string
	Tenants int
	Layout  string
	Disks   int
	QoS     bool
	Noisy   bool
	// Issued and Failed are the client's view: requests put on the
	// wire and responses carrying any error.
	Issued int64
	Failed int64
	// Server holds the server's lifetime counters; Breaker its
	// transition counts; Classes the per-class outcome summaries.
	Server  server.Counters
	Breaker server.BreakerCounts
	Classes []server.ClassStat
	// Degraded and DeadMembers are the backend volume's view.
	Degraded    int64
	DeadMembers int
}

// ExecuteTenants runs one tenant-scale configuration to completion.
// Like ExecuteVolume it builds a fully self-contained stack per call.
func ExecuteTenants(ctx context.Context, s TenantSetup) (*TenantPoint, error) {
	s = s.withDefaults()
	st, err := newStack(ctx, stackSpec{
		volume: &volume.Options{
			Layout: s.Layout,
			Disks:  s.Disks,
			// Members carry the usual reserved region so their geometry
			// matches the volume experiments, though nothing rearranges here.
			ReservedCyls: 48,
			Faults:       s.Faults,
		},
		server: &server.Config{
			Tenants: s.Tenants,
			Net:     server.LinkConfig{LatencyMS: s.NetLatencyMS, BandwidthMBps: s.NetBandwidthMBps},
			QoSOff:  s.QoSOff,
		},
	})
	if err != nil {
		return nil, err
	}
	defer st.finish()
	v, srv := st.vol, st.srv

	w, err := workload.NewTenants(st.eng, srv, v.Blocks(), workload.TenantConfig{
		Tenants:         s.Tenants,
		Classes:         3,
		RatePerSec:      s.RatePerSec,
		ReadFrac:        s.ReadFrac,
		Noisy:           s.Noisy,
		NoisyTenant:     2, // class bronze: the victims' classes stay clean
		NoisyRatePerSec: s.NoisyRate,
		Seed:            s.Seed,
	})
	if err != nil {
		return nil, err
	}
	st.observe()

	// Traffic starts at the paper's day start — long after formatting —
	// purely so every configuration shares one well-known clock origin.
	start := workload.DayStartMS
	end := start + s.DurationMS
	if err := st.await("tenant traffic", end+60_000, func(done func(error)) {
		w.Run(start, end, done)
	}); err != nil {
		return nil, err
	}

	return &TenantPoint{
		Config:      s.Config,
		Tenants:     s.Tenants,
		Layout:      string(s.Layout),
		Disks:       s.Disks,
		QoS:         !s.QoSOff,
		Noisy:       s.Noisy,
		Issued:      w.Issued(),
		Failed:      w.Failed(),
		Server:      srv.Counters(),
		Breaker:     srv.Breaker().Counts(),
		Classes:     srv.ClassStats(),
		Degraded:    v.Stats().Degraded,
		DeadMembers: v.DeadMembers(),
	}, nil
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
func tenantConfigs(o Options) []TenantSetup {
	finish := func(s TenantSetup) TenantSetup {
		if o.Tenants > 0 {
			s.Tenants = o.Tenants
		}
		s.NetLatencyMS = o.NetLatencyMS
		s.NetBandwidthMBps = o.NetBandwidthMBps
		switch o.QoS {
		case "on":
			s.QoSOff = false
		case "off":
			s.QoSOff = true
		}
		if o.WindowMS > 0 {
			s.DurationMS = o.WindowMS
		}
		s.Seed = o.Seed
		// Resolve defaults here too so the runner job names carry the
		// final row labels.
		return s.withDefaults()
	}
	var out []TenantSetup
	counts := []int{1_000, 10_000, 100_000, 1_000_000}
	if o.Tenants > 0 {
		counts = counts[:1] // finish pins the population anyway
	}
	for _, n := range counts {
		out = append(out, finish(TenantSetup{Tenants: n}))
	}
	noisy := TenantSetup{Config: "noisy-qos", Tenants: 10_000, Noisy: true}
	out = append(out, finish(noisy))
	open := noisy
	open.Config, open.QoSOff = "noisy-open", true
	s := finish(open)
	if o.QoS != "on" {
		s.QoSOff = true // -qos=off must not collapse the pair's contrast
	}
	out = append(out, s)
	// The breaker scenario: a two-member mirror loses member 1 early in
	// the run. The arrival rate is set above a single member's service
	// capacity, so after the death the survivor's queue grows without
	// bound, deadlines start missing, and the breaker cycles
	// open/half-open/closed while admission sheds the excess.
	death := TenantSetup{
		Config: "mirror-death", Tenants: 100_000,
		Layout: volume.Mirror, Disks: 2,
		RatePerSec: 60, ReadFrac: 0.9,
		Faults: []*fault.Plan{nil, {Seed: 7, CrashAfterOps: 2000}},
	}
	out = append(out, finish(death))
	return out
}

// tenantUnits decomposes the matrix into one independent run per
// configuration.
func tenantUnits(o Options) []unit {
	return matrixUnits(tenantConfigs(o),
		func(s TenantSetup) (string, float64) { return "tenants/" + s.Config, s.DurationMS / workload.DayMS },
		ExecuteTenants,
		func(rs *ResultSet, _ TenantSetup, pt *TenantPoint) { rs.Tenants = append(rs.Tenants, *pt) })
}

// TenantReport renders the tenant-scale matrix: the per-configuration
// summary, then the per-class breakdown whose p99/p999 columns are the
// experiment's QoS evidence.
func TenantReport(points []TenantPoint) []Renderable {
	rep := &Report{
		ID:      "tenant-scale",
		Title:   "Extension: multi-tenant server front end (open-loop tenants over a simulated network)",
		Columns: []string{"Config", "Tenants", "Backend", "QoS", "Issued", "OK", "Thr", "Shed", "Exp", "Miss", "Retry", "Brk o/h/c", "Degr", "Dead"},
	}
	var nQoS, nOpen TenantPoint
	for _, p := range points {
		qos := "on"
		if !p.QoS {
			qos = "off"
		}
		backend := p.Layout
		if p.Layout != string(volume.Mirror) {
			backend = fmt.Sprintf("%s-%d", p.Layout, p.Disks)
		}
		c := p.Server
		rep.AddRow(p.Config, fmt.Sprintf("%d", p.Tenants), backend, qos,
			fmt.Sprintf("%d", p.Issued), fmt.Sprintf("%d", c.Completed),
			fmt.Sprintf("%d", c.Throttled), fmt.Sprintf("%d", c.Overloaded+c.BreakerRejects),
			fmt.Sprintf("%d", c.Expired), fmt.Sprintf("%d", c.DeadlineMiss),
			fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d/%d/%d", p.Breaker.Opened, p.Breaker.HalfOpened, p.Breaker.Closed),
			fmt.Sprintf("%d", p.Degraded), fmt.Sprintf("%d", p.DeadMembers))
		switch p.Config {
		case "noisy-qos":
			nQoS = p
		case "noisy-open":
			nOpen = p
		}
		if p.Breaker.Opened > 0 {
			rep.AddNote("%s: breaker opened %d time(s), half-opened %d, closed %d while %d member(s) died",
				p.Config, p.Breaker.Opened, p.Breaker.HalfOpened, p.Breaker.Closed, p.DeadMembers)
		}
	}
	if g, o := classByName(nQoS.Classes, "gold"), classByName(nOpen.Classes, "gold"); g.Submitted > 0 && o.Submitted > 0 {
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
		for _, st := range p.Classes {
			cls.AddRow(p.Config, st.Name, fmt.Sprintf("%d", st.Submitted),
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

// registerTenants registers the tenant-scale extension experiment.
func registerTenants() {
	Register(Spec{
		ID: "tenant-scale", Description: "extension: multi-tenant server front end — QoS, admission control, circuit breaker",
		Needs: []Need{NeedTenants},
		Report: func(rs *ResultSet) []Renderable {
			return TenantReport(rs.Tenants)
		},
	})
}
