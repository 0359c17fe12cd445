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

// runsSpec makes the spec of an id that reports from one need's runs.
func runsSpec(id, desc string, n Need, report func([]*Run) []Renderable) Spec {
	return Spec{ID: id, Description: desc, Needs: []Need{n},
		Report: func(rs *ResultSet) []Renderable { return report(rs.Runs(n)) }}
}

// tableSpec is runsSpec for an id whose report is one table.
func tableSpec(id, desc string, n Need, report func([]*Run) *Report) Spec {
	return runsSpec(id, desc, n, func(runs []*Run) []Renderable { return []Renderable{report(runs)} })
}

// specs is the registry, in display order: the paper's tables, its
// figures (each id emits its table form followed by its ASCII chart),
// the extensions, and — appended by init, which can look the members up —
// the groups.
var specs = []Spec{
	{ID: "table1", Description: "specifications of the disks (model validation)",
		Report: func(*ResultSet) []Renderable { return []Renderable{Table1()} }},
	tableSpec("table2", "on/off summary, system file system", NeedSystem, Table2),
	tableSpec("table3", "off day vs on day detail, system file system", NeedSystem, Table3),
	tableSpec("table4", "on/off summary, system fs, reads only", NeedSystem, Table4),
	tableSpec("table5", "on/off summary, users file system", NeedUsers, Table5),
	tableSpec("table6", "on/off summary, users fs, reads only", NeedUsers, Table6),
	tableSpec("table7", "seek-time reduction per placement policy", NeedPolicies, Table7),
	tableSpec("table8", "placement policies on the Toshiba disk", NeedPolicies, Table8),
	tableSpec("table9", "placement policies on the Fujitsu disk", NeedPolicies, Table9),
	tableSpec("table10", "placement policies vs rotational delays", NeedPolicies, Table10),
	runsSpec("fig4", "service-time CDF, system fs, Fujitsu", NeedSystem, Figure4),
	runsSpec("fig5", "block-access distribution, system fs", NeedSystem, Figure5),
	runsSpec("fig6", "service-time CDF, users fs, Fujitsu", NeedUsers, Figure6),
	runsSpec("fig7", "block-access distribution, users fs", NeedUsers, Figure7),
	runsSpec("fig8", "seek reduction vs rearranged blocks (Toshiba)", NeedSweep, Figure8),
	tableSpec("shared", "extension: both file systems sharing one disk", NeedShared, SharedReport),
	tableSpec("faults", "extension: response-time degradation under transient device faults", NeedFaults, FaultsReport),
	{ID: "crash", Description: "extension: crash-recovery invariant checks after power loss", Needs: []Need{NeedCrash},
		Report: func(rs *ResultSet) []Renderable { return []Renderable{CrashReport(rs.Crash)} }},
	tableSpec("volume-scale", "extension: throughput and response time scaling across multi-disk volumes", NeedVolume, VolumeReport),
	runsSpec("tenant-scale", "extension: multi-tenant server front end — QoS, admission control, circuit breaker", NeedTenants, TenantReport),
	tableSpec("raid-rebuild", "extension: RAID-5/6 parity layouts (degraded reads, hot-spare rebuild, scrub)", NeedRAID, RAIDReport),
	tableSpec("trace-replay", "extension: real-trace ingestion and scaled deterministic replay (tracein)", NeedTrace, TraceReport),
	tableSpec("ablations", "design-choice ablations: scheduler, hot-list size, reserved location, poll period, granularity", NeedAblations, AblationsReport),
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
