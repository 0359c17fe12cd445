package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/runner"
)

// Renderable is anything an experiment emits: a *Report table or a
// plot.Chart.
type Renderable interface{ Render() string }

// Spec is one registered experiment id: what it needs simulated and how
// it reports from the assembled results. Group ids ("all",
// "onoff-system", ...) are specs too.
type Spec struct {
	// ID is the experiment identifier ("table2", "fig8", "all", ...).
	ID string
	// Description is the one-line summary shown by abrsim -h.
	Description string
	// Needs lists the simulation products the report consumes. The
	// harness gathers the union of needs across requested specs, so
	// shared products are simulated once.
	Needs []Need
	// Report renders the experiment from the gathered results. It must
	// be pure: same ResultSet, same output.
	Report func(rs *ResultSet) []Renderable
}

func one(r Renderable) []Renderable { return []Renderable{r} }

// specs is the registry, in display order: the paper's tables, its
// figures (each id emits its table form followed by its ASCII chart),
// the extensions, and — appended by init, which can look the members up —
// the groups.
var specs = []Spec{
	{ID: "table1", Description: "specifications of the disks (model validation)",
		Report: func(*ResultSet) []Renderable { return one(Table1()) }},
	{ID: "table2", Description: "on/off summary, system file system", Needs: []Need{NeedSystem},
		Report: func(rs *ResultSet) []Renderable { return one(Table2(rs.System)) }},
	{ID: "table3", Description: "off day vs on day detail, system file system", Needs: []Need{NeedSystem},
		Report: func(rs *ResultSet) []Renderable { return one(Table3(rs.System)) }},
	{ID: "table4", Description: "on/off summary, system fs, reads only", Needs: []Need{NeedSystem},
		Report: func(rs *ResultSet) []Renderable { return one(Table4(rs.System)) }},
	{ID: "table5", Description: "on/off summary, users file system", Needs: []Need{NeedUsers},
		Report: func(rs *ResultSet) []Renderable { return one(Table5(rs.Users)) }},
	{ID: "table6", Description: "on/off summary, users fs, reads only", Needs: []Need{NeedUsers},
		Report: func(rs *ResultSet) []Renderable { return one(Table6(rs.Users)) }},
	{ID: "table7", Description: "seek-time reduction per placement policy", Needs: []Need{NeedPolicies},
		Report: func(rs *ResultSet) []Renderable { return one(Table7(rs.Policies)) }},
	{ID: "table8", Description: "placement policies on the Toshiba disk", Needs: []Need{NeedPolicies},
		Report: func(rs *ResultSet) []Renderable { return one(Table8(rs.Policies)) }},
	{ID: "table9", Description: "placement policies on the Fujitsu disk", Needs: []Need{NeedPolicies},
		Report: func(rs *ResultSet) []Renderable { return one(Table9(rs.Policies)) }},
	{ID: "table10", Description: "placement policies vs rotational delays", Needs: []Need{NeedPolicies},
		Report: func(rs *ResultSet) []Renderable { return one(Table10(rs.Policies)) }},
	{ID: "fig4", Description: "service-time CDF, system fs, Fujitsu", Needs: []Need{NeedSystem},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{Figure4(rs.System), cdfChart("Figure 4: service time CDF, system fs, Fujitsu", rs.System.Fujitsu)}
		}},
	{ID: "fig5", Description: "block-access distribution, system fs", Needs: []Need{NeedSystem},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{Figure5(rs.System), accessChart("Figure 5: block access distribution, system fs (Toshiba)", rs.System.Toshiba)}
		}},
	{ID: "fig6", Description: "service-time CDF, users fs, Fujitsu", Needs: []Need{NeedUsers},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{Figure6(rs.Users), cdfChart("Figure 6: service time CDF, users fs, Fujitsu", rs.Users.Fujitsu)}
		}},
	{ID: "fig7", Description: "block-access distribution, users fs", Needs: []Need{NeedUsers},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{Figure7(rs.Users), accessChart("Figure 7: block access distribution, users fs (Toshiba)", rs.Users.Toshiba)}
		}},
	{ID: "fig8", Description: "seek reduction vs rearranged blocks (Toshiba)", Needs: []Need{NeedSweep},
		Report: func(rs *ResultSet) []Renderable { return []Renderable{Figure8(rs.Sweep), Figure8Chart(rs.Sweep)} }},
	{ID: "shared", Description: "extension: both file systems sharing one disk", Needs: []Need{NeedShared},
		Report: func(rs *ResultSet) []Renderable { return one(SharedReport(rs.Shared)) }},
	{ID: "faults", Description: "extension: response-time degradation under transient device faults", Needs: []Need{NeedFaults},
		Report: func(rs *ResultSet) []Renderable { return one(FaultsReport(rs.Faults)) }},
	{ID: "crash", Description: "extension: crash-recovery invariant checks after power loss", Needs: []Need{NeedCrash},
		Report: func(rs *ResultSet) []Renderable { return one(CrashReport(rs.Crash)) }},
	{ID: "volume-scale", Description: "extension: throughput and response time scaling across multi-disk volumes", Needs: []Need{NeedVolume},
		Report: func(rs *ResultSet) []Renderable { return one(VolumeReport(rs.Volume)) }},
	{ID: "tenant-scale", Description: "extension: multi-tenant server front end — QoS, admission control, circuit breaker", Needs: []Need{NeedTenants},
		Report: func(rs *ResultSet) []Renderable { return TenantReport(rs.Tenants) }},
	{ID: "raid-rebuild", Description: "extension: RAID-5/6 parity layouts (degraded reads, hot-spare rebuild, scrub)", Needs: []Need{NeedRAID},
		Report: func(rs *ResultSet) []Renderable { return one(RAIDReport(rs.RAID)) }},
	{ID: "trace-replay", Description: "extension: real-trace ingestion and scaled deterministic replay (tracein)", Needs: []Need{NeedTrace},
		Report: func(rs *ResultSet) []Renderable { return one(TraceReport(rs.Trace)) }},
}

// Lookup returns the spec registered under id.
func Lookup(id string) (Spec, bool) {
	for _, s := range specs {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Specs returns all registered specs in display order.
func Specs() []Spec { return append([]Spec(nil), specs...) }

// IDs returns all registered ids in display order.
func IDs() []string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// RunSpec executes one registered experiment end to end: it gathers the
// spec's needs on the parallel runner and returns the rendered reports.
// An unknown id fails with the list of valid ids.
func RunSpec(ctx context.Context, id string, o Options, cfg runner.Config) ([]Renderable, error) {
	reports, _, err := RunSpecFull(ctx, id, o, cfg)
	return reports, err
}

// RunSpecFull is RunSpec, additionally returning the gathered
// ResultSet so callers can reach the per-job telemetry collectors and
// runner metrics alongside the rendered reports.
func RunSpecFull(ctx context.Context, id string, o Options, cfg runner.Config) ([]Renderable, *ResultSet, error) {
	s, ok := Lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
	}
	rs, err := Gather(ctx, s.Needs, o, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.Report(rs), rs, nil
}

// group builds a spec that runs the listed member ids, already
// registered, together: it unions their needs into canonical order and
// concatenates their reports in the order given.
func group(id, desc string, members ...string) Spec {
	var ms []Spec
	seen := map[Need]bool{}
	for _, m := range members {
		s, ok := Lookup(m)
		if !ok {
			panic("experiment: group references unregistered id " + m)
		}
		ms = append(ms, s)
		for _, n := range s.Needs {
			seen[n] = true
		}
	}
	var needs []Need
	for n := Need(0); n < needCount; n++ {
		if seen[n] {
			needs = append(needs, n)
		}
	}
	return Spec{
		ID: id, Description: desc, Needs: needs,
		Report: func(rs *ResultSet) []Renderable {
			var out []Renderable
			for _, s := range ms {
				out = append(out, s.Report(rs)...)
			}
			return out
		},
	}
}

// init appends the composite ids. "all" reproduces the paper's full
// sequence (Tables 1–10, Figures 4–8); the on/off, policy, and sweep
// groups slice it by experiment family.
func init() {
	specs = append(specs,
		group("onoff-system",
			"on/off experiment, system file system (Tables 2-4, Figures 4-5)",
			"table2", "table3", "table4", "fig4", "fig5"),
		group("onoff-users",
			"on/off experiment, users file system (Tables 5-6, Figures 6-7)",
			"table5", "table6", "fig6", "fig7"),
		group("policies",
			"placement policy experiments (Tables 7-10)",
			"table7", "table8", "table9", "table10"),
		group("sweep",
			"block-count sweep (Figure 8)",
			"fig8"),
		group("all",
			"every table and figure of the paper",
			"table1", "table2", "table3", "table4", "fig4", "fig5",
			"table5", "table6", "fig6", "fig7",
			"table7", "table8", "table9", "table10", "fig8"))
}
