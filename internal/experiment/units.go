package experiment

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Need identifies one shared simulation product that registered
// experiments consume. Several experiments share one product (Tables
// 2–4 and Figures 4–5 all read the system-fs on/off runs), so the
// harness unions the needs of the requested experiments, simulates each
// product's independent units once on the parallel runner, and hands
// every report the same assembled ResultSet.
type Need int

const (
	// NeedSystem is the on/off experiment on the system file system
	// (one run per disk).
	NeedSystem Need = iota
	// NeedUsers is the on/off experiment on the users file system.
	NeedUsers
	// NeedPolicies is the placement-policy matrix (3 policies × 2 disks).
	NeedPolicies
	// NeedSweep is the Figure 8 block-count sweep.
	NeedSweep
	// NeedShared is the shared-disk extension (one combined run).
	NeedShared
	// NeedFaults is the fault-injection sweep: one run per transient
	// fault rate, measuring response-time degradation.
	NeedFaults
	// NeedCrash is the crash-recovery scenario battery on the
	// crashcheck harness.
	NeedCrash
	// NeedVolume is the multi-disk volume scale-out matrix: one run per
	// volume configuration (disk count, stripe unit, mirror policy,
	// rearrangement, degraded mirror).
	NeedVolume
	// NeedTenants is the multi-tenant server front-end matrix: one run
	// per tenant-scale configuration (population sweep, noisy-neighbor
	// QoS pair, mirror-member-death breaker scenario).
	NeedTenants
	// NeedRAID is the parity-layout matrix: one run per RAID-5/6
	// configuration (healthy, degraded, hot-spare rebuild, latent-error
	// scrub, double fault).
	NeedRAID
	// NeedTrace is the trace-replay matrix: one rearranging run per
	// replay configuration (open/closed loop, scale factor), whose
	// learning pass is the configuration's off row.
	NeedTrace
	// NeedAblations is the ablation matrix: the rearranged system
	// workload with one design choice changed per row.
	NeedAblations
	needCount
)

// needTable names each need and gives its table of experiments: the
// prefix that, before a row's name, names the row's job, and the rows.
// The crash battery runs on the crashcheck harness, not on a stack, and
// brings its own units.
var needTable = [needCount]struct {
	name   string
	prefix string
	rows   func(Options) []Experiment
	crash  func() []unit
}{
	NeedSystem: {name: "onoff-system", prefix: "onoff/system/",
		rows: func(o Options) []Experiment { return onOffConfigs(System, o) }},
	NeedUsers: {name: "onoff-users", prefix: "onoff/users/",
		rows: func(o Options) []Experiment { return onOffConfigs(Users, o) }},
	NeedPolicies:  {name: "policies", prefix: "policies/", rows: policiesConfigs},
	NeedSweep:     {name: "sweep", prefix: "sweep/", rows: sweepConfigs},
	NeedShared:    {name: "shared", rows: sharedConfigs},
	NeedFaults:    {name: "faults", prefix: "faults/", rows: faultConfigs},
	NeedCrash:     {name: "crash", crash: crashUnits},
	NeedVolume:    {name: "volume", prefix: "volume/", rows: volumeConfigs},
	NeedTenants:   {name: "tenants", prefix: "tenants/", rows: tenantConfigs},
	NeedRAID:      {name: "raid", prefix: "raid/", rows: raidConfigs},
	NeedTrace:     {name: "trace", prefix: "trace/", rows: traceConfigs},
	NeedAblations: {name: "ablations", prefix: "ablations/", rows: ablationConfigs},
}

// units expands the need into its simulation units.
func (n Need) units(o Options) ([]unit, error) {
	nd := needTable[n]
	if nd.crash != nil {
		return nd.crash(), nil
	}
	return experimentUnits(n, nd.rows(o))
}

// String names the need for errors and job labels.
func (n Need) String() string {
	if n < 0 || n >= needCount {
		return fmt.Sprintf("need(%d)", int(n))
	}
	return needTable[n].name
}

// ResultSet holds the assembled simulation products the registered
// experiments report from: each gathered need's runs, in row order, and
// the crash battery's points.
type ResultSet struct {
	runs  [needCount][]*Run
	Crash []CrashPoint

	// Collectors holds each simulation job's telemetry collector in
	// job order when Options.Telemetry was set; nil otherwise.
	// Concatenating their buffers in this order (telemetry.WriteTrace,
	// telemetry.WriteCSV) yields byte-identical output for any worker
	// count.
	Collectors []*telemetry.Collector
	// Metrics holds the runner's per-job measurements (name,
	// wall-clock, units) in job order.
	Metrics []runner.Metric
}

// Runs returns the need's completed runs in the order of its rows; nil
// for a need that was not gathered.
func (rs *ResultSet) Runs(n Need) []*Run { return rs.runs[n] }

// unit pairs one independent simulation job with the step that installs
// its result into a ResultSet. Apply steps run sequentially in job
// order after every job has finished, so assembly is single-threaded
// and the set's contents cannot depend on the pool's scheduling.
type unit struct {
	job   runner.Job
	apply func(rs *ResultSet, v any)
}

// matrixUnits decomposes a configuration matrix into one independent
// unit per row: label names and weighs the row's job, run simulates it
// (a failure is wrapped with the job's name) and apply installs its
// result, in row order.
func matrixUnits[S, R any](rows []S, label func(S) (name string, units float64),
	run func(context.Context, S) (R, error), apply func(*ResultSet, R)) []unit {
	units := make([]unit, 0, len(rows))
	for _, row := range rows {
		name, n := label(row)
		units = append(units, unit{
			job: runner.Job{
				Name:  name,
				Units: n,
				Run: func(ctx context.Context) (any, error) {
					res, err := run(ctx, row)
					if err != nil {
						return nil, fmt.Errorf("experiment: %s: %w", name, err)
					}
					return res, nil
				},
			},
			apply: func(rs *ResultSet, v any) { apply(rs, v.(R)) },
		})
	}
	return units
}

// experimentUnits makes one unit per row of the need's table: the job is
// named the need's prefix + the row's name and weighed in simulated days,
// and its completed run is appended to the need's runs. A row that does
// not validate fails the whole table, before any job exists.
func experimentUnits(n Need, rows []Experiment) ([]unit, error) {
	prefix := needTable[n].prefix
	for i, e := range rows {
		var err error
		if rows[i], err = e.withDefaults(); err != nil {
			return nil, fmt.Errorf("%s%s: %w", prefix, e.Name, err)
		}
	}
	return matrixUnits(rows,
		func(e Experiment) (string, float64) { return prefix + e.Name, e.simDays() },
		Execute, func(rs *ResultSet, run *Run) { rs.runs[n] = append(rs.runs[n], run) }), nil
}

// onOffConfigs is one file system's on/off experiment: one run per disk.
// The paper ran 10 days (5 on, 5 off) for the system file system, and 12
// (Toshiba) / 10 (Fujitsu) days for the users file system.
func onOffConfigs(src Source, o Options) []Experiment {
	daysTosh := 10
	if src == Users {
		daysTosh = 12
	}
	return []Experiment{o.paper("toshiba", "toshiba", src, daysTosh), o.paper("fujitsu", "fujitsu", src, 10)}
}

// policiesConfigs is the placement-policy matrix: the system file
// system, each disk × each policy, rearrangement applied every day
// after a warm-up day.
func policiesConfigs(o Options) []Experiment {
	var rows []Experiment
	for _, d := range []string{"toshiba", "fujitsu"} {
		for _, p := range PolicyNames {
			e := o.paper(d+"/"+p, d, System, 4)
			e.Rearrange.Policy, e.OnPattern = p, everyDayAfterWarmup
			rows = append(rows, e)
		}
	}
	return rows
}

// sweepBlocks are the Figure 8 sweep sizes (the Toshiba reserved region
// holds at most 1018 blocks).
var sweepBlocks = []int{25, 50, 100, 200, 400, 600, 800, 1018}

// sweepConfigs is the Figure 8 sweep: the system file system on the
// Toshiba, one run per rearranged-block count.
func sweepConfigs(o Options) []Experiment {
	var rows []Experiment
	for _, n := range sweepBlocks {
		e := o.paper(strconv.Itoa(n), "toshiba", System, 2)
		e.Rearrange.Blocks, e.OnPattern = n, everyDayAfterWarmup
		rows = append(rows, e)
	}
	return rows
}

// Gather simulates the given needs on the parallel runner and assembles
// the results. Needs are deduplicated and expanded in canonical order,
// and results are installed in job order, so the assembled set — and
// everything rendered from it — is identical for any worker count. The
// options and every row are validated before the first job starts.
func Gather(ctx context.Context, needs []Need, o Options, cfg runner.Config) (*ResultSet, error) {
	if err := o.Validate(); err != nil {
		return nil, err // before the rows are built from them
	}
	requested := make([]bool, needCount)
	for _, n := range needs {
		if n < 0 || n >= needCount {
			return nil, fmt.Errorf("experiment: unknown need %d", int(n))
		}
		requested[n] = true
	}
	var units []unit
	for n := Need(0); n < needCount; n++ {
		if !requested[n] {
			continue
		}
		us, err := n.units(o)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return runUnits(ctx, units, o, cfg)
}

// runUnits runs units' jobs on the pool and applies results in order.
// When telemetry is requested, each job gets a private collector,
// injected through the job's context so simulation code can pick it up
// with telemetry.FromContext, and frozen when the job body returns, so
// no finished job's stack stays reachable through its registry;
// collectors are assembled in job order.
func runUnits(ctx context.Context, units []unit, o Options, cfg runner.Config) (*ResultSet, error) {
	jobs := make([]runner.Job, len(units))
	var cols []*telemetry.Collector
	if o.Telemetry != nil {
		cols = make([]*telemetry.Collector, len(units))
	}
	for i, u := range units {
		jobs[i] = u.job
		if o.Telemetry != nil {
			col := telemetry.NewCollector(u.job.Name, *o.Telemetry)
			cols[i] = col
			inner := u.job.Run
			jobs[i].Run = func(ctx context.Context) (any, error) {
				defer col.Freeze()
				return inner(telemetry.NewContext(ctx, col))
			}
		}
	}
	results, metrics, err := runner.RunWithMetrics(ctx, jobs, cfg)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Collectors: cols, Metrics: metrics}
	for i, u := range units {
		u.apply(rs, results[i])
	}
	return rs, nil
}
