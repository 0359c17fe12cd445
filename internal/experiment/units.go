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
	// NeedTrace is the trace-replay matrix: one run per replay
	// configuration (open/closed loop, scale factor, rearrangement
	// off/on).
	NeedTrace
	needCount
)

// needTable names each need and expands it into its simulation units.
var needTable = [needCount]struct {
	name  string
	units func(Options) []unit
}{
	NeedSystem:   {"onoff-system", func(o Options) []unit { return onOffUnits("system", o) }},
	NeedUsers:    {"onoff-users", func(o Options) []unit { return onOffUnits("users", o) }},
	NeedPolicies: {"policies", policiesUnits},
	NeedSweep:    {"sweep", func(o Options) []unit { return sweepUnits(o, nil) }},
	NeedShared:   {"shared", sharedUnits},
	NeedFaults:   {"faults", faultUnits},
	NeedCrash:    {"crash", crashUnits},
	NeedVolume:   {"volume", volumeUnits},
	NeedTenants:  {"tenants", tenantUnits},
	NeedRAID:     {"raid", raidUnits},
	NeedTrace:    {"trace", traceUnits},
}

// String names the need for errors and job labels.
func (n Need) String() string {
	if n < 0 || n >= needCount {
		return fmt.Sprintf("need(%d)", int(n))
	}
	return needTable[n].name
}

// ResultSet holds the assembled simulation products the registered
// experiments report from. Only the fields for gathered needs are
// populated.
type ResultSet struct {
	System   *OnOff
	Users    *OnOff
	Policies *Policies
	Sweep    []SweepPoint
	Shared   *SharedResult
	Faults   []FaultPoint
	Crash    []CrashPoint
	Volume   []VolumePoint
	Tenants  []TenantPoint
	RAID     []VolumePoint
	Trace    []TracePoint

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
	run func(context.Context, S) (R, error), apply func(*ResultSet, S, R)) []unit {
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
			apply: func(rs *ResultSet, v any) { apply(rs, row, v.(R)) },
		})
	}
	return units
}

// onOffUnits decomposes one file system's on/off experiment into its
// two independent per-disk runs. The paper ran 10 days (5 on, 5 off)
// for the system file system, and 12 (Toshiba) / 10 (Fujitsu) days for
// the users file system.
func onOffUnits(fsname string, o Options) []unit {
	daysTosh, daysFuji := 10, 10
	if fsname == "users" {
		daysTosh = 12
	}
	return matrixUnits([]Setup{o.setup("toshiba", fsname, daysTosh), o.setup("fujitsu", fsname, daysFuji)},
		func(s Setup) (string, float64) { return "onoff/" + fsname + "/" + s.DiskName, float64(s.Days) },
		Execute,
		func(rs *ResultSet, s Setup, run *Run) {
			res := ensureOnOff(rs, fsname)
			if s.DiskName == "toshiba" {
				res.Toshiba = run
			} else {
				res.Fujitsu = run
			}
		})
}

func ensureOnOff(rs *ResultSet, fsname string) *OnOff {
	slot := &rs.System
	if fsname == "users" {
		slot = &rs.Users
	}
	if *slot == nil {
		*slot = &OnOff{FSName: fsname}
	}
	return *slot
}

// everyDayAfterWarmup is the on-pattern of the experiments that
// rearrange after every day but the first.
func everyDayAfterWarmup(day int) bool { return day > 0 }

// policiesUnits decomposes the placement-policy experiments into their
// six independent runs (system file system, each disk × each policy,
// rearrangement applied every day after a warm-up day).
func policiesUnits(o Options) []unit {
	var rows []Setup
	for _, d := range []string{"toshiba", "fujitsu"} {
		for _, p := range PolicyNames {
			s := o.setup(d, "system", 4)
			s.Policy, s.OnPattern = p, everyDayAfterWarmup
			rows = append(rows, s)
		}
	}
	return matrixUnits(rows,
		func(s Setup) (string, float64) { return "policies/" + s.DiskName + "/" + s.Policy, float64(s.Days) },
		Execute,
		func(rs *ResultSet, s Setup, run *Run) {
			if rs.Policies == nil {
				rs.Policies = &Policies{Runs: make(map[string]map[string]*Run)}
			}
			if rs.Policies.Runs[s.DiskName] == nil {
				rs.Policies.Runs[s.DiskName] = make(map[string]*Run)
			}
			rs.Policies.Runs[s.DiskName][s.Policy] = run
		})
}

// sweepUnits decomposes the Figure 8 sweep into one independent run per
// block count. Each job computes its SweepPoint; apply steps append in
// job order, so the sweep comes out sorted as given.
func sweepUnits(o Options, counts []int) []unit {
	if len(counts) == 0 {
		counts = DefaultSweepBlocks
	}
	var rows []Setup
	for _, n := range counts {
		s := o.setup("toshiba", "system", 2)
		s.Blocks, s.OnPattern = n, everyDayAfterWarmup
		rows = append(rows, s)
	}
	return matrixUnits(rows,
		func(s Setup) (string, float64) { return "sweep/" + strconv.Itoa(s.Blocks), float64(s.Days) },
		func(ctx context.Context, s Setup) (SweepPoint, error) {
			run, err := Execute(ctx, s)
			if err != nil {
				return SweepPoint{}, err
			}
			_, on := detailDays(run)
			all := on.Metrics(run.Curve, AllRequests)
			reads := on.Metrics(run.Curve, ReadsOnly)
			return SweepPoint{
				Blocks:         s.Blocks,
				DistRedPct:     DistReductionPct(all),
				TimeRedPct:     SeekReductionPct(all),
				ReadDistRedPct: DistReductionPct(reads),
				ReadTimeRedPct: SeekReductionPct(reads),
			}, nil
		},
		func(rs *ResultSet, _ Setup, p SweepPoint) { rs.Sweep = append(rs.Sweep, p) })
}

// sharedUnits wraps the shared-disk extension. Its two workloads drive
// one rig and one engine, so it is a single job.
func sharedUnits(o Options) []unit {
	return matrixUnits([]Options{o},
		func(o Options) (string, float64) { return "shared", float64(o.days(4)) },
		RunShared,
		func(rs *ResultSet, _ Options, res *SharedResult) { rs.Shared = res })
}

// Gather simulates the given needs on the parallel runner and assembles
// the results. Needs are deduplicated and expanded in canonical order,
// and results are installed in job order, so the assembled set — and
// everything rendered from it — is identical for any worker count.
func Gather(ctx context.Context, needs []Need, o Options, cfg runner.Config) (*ResultSet, error) {
	requested := make([]bool, needCount)
	for _, n := range needs {
		if n < 0 || n >= needCount {
			return nil, fmt.Errorf("experiment: unknown need %d", int(n))
		}
		requested[n] = true
	}
	var units []unit
	for n := Need(0); n < needCount; n++ {
		if requested[n] {
			units = append(units, needTable[n].units(o)...)
		}
	}
	return runUnits(ctx, units, o, cfg)
}

// runUnits runs units' jobs on the pool and applies results in order.
// When telemetry is requested, each job gets a private collector,
// injected through the job's context so simulation code can pick it up
// with telemetry.FromContext; collectors are assembled in job order.
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
