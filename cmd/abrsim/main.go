// Command abrsim runs the paper's experiments and prints the
// corresponding tables and figures with the paper's own numbers
// alongside for comparison.
//
// Usage:
//
//	abrsim -exp table2 [-days N] [-hours H] [-seed S] [-jobs N] [-timeout D]
//	       [-trace FILE] [-sample D [-telemetry FILE]]
//	       [-metrics FILE [-metrics-format json|prom]] [-pprof ADDR]
//	       [-fault-plan PLAN] [-fault-seed S] [-crash-after N]
//
// Experiment ids come from the experiment registry; -h lists them all.
// Independent simulations (each disk, policy, and sweep configuration)
// fan out across -jobs workers, and the output — including the trace,
// telemetry, and metrics files — is byte-identical for any worker
// count.
//
// The default window is the paper's full 7am-10pm day; use -hours to
// compress it for quick runs (shapes are stable down to about 1 hour).
//
// Observability: -trace streams one JSONL request span per completed
// disk request; -sample runs the telemetry sampler every D of sim time
// and writes the time series as CSV to -telemetry; -metrics records
// latency histograms and counters across the stack (driver, scheduler,
// caches, volume, file system, workload) and writes one snapshot per
// job as JSON — or Prometheus text with -metrics-format prom; -pprof
// serves net/http/pprof on the given address for profiling the harness
// itself (a run that ends before it has delivered any CPU profile
// waits for the one being taken).
//
// Fault injection: -fault-plan injects device faults per the plan
// grammar (e.g. "seed=3;twrite=1e-4;bad=40000-40015") into every
// simulation unit; -fault-seed and -crash-after are shorthands that
// override the plan's seed and power-loss point. Fault draws are keyed
// by (seed, operation index), so results stay byte-identical for any
// -jobs value. The registered "faults" and "crash" experiments use
// their own built-in plans, as does "volume-scale", whose matrix
// drives the workload over multi-disk logical volumes (striping,
// mirroring, per-member rearrangement, a mirror with one member
// killed mid-run); its per-member plans are part of the matrix, so
// -fault-plan does not apply to it.
//
// Tenant scale: the "tenant-scale" experiment puts the multi-tenant
// server front end (simulated network, per-tenant token buckets,
// admission control, circuit breaker) over the volume layer; -tenants
// pins the population, -net-lat/-net-bw shape the simulated link, and
// -qos forces admission control on or off across the matrix.
//
// Parity layouts: the "raid-rebuild" experiment drives the workload
// over rotating-parity RAID-5 and double-parity RAID-6 volumes —
// healthy, degraded after a member death, rebuilding onto a hot spare,
// scrubbing a planted latent sector error, and surviving a double
// fault. -layout collapses the matrix to one row ("raid5" or "raid6");
// -spare, -rebuild-rate, and -scrub-interval configure that row.
//
// Trace replay: the "trace-replay" experiment replays a captured block
// trace against a volume — rearrangement off and on, open and closed
// loop, optionally scaled to heavy traffic. By default it synthesizes
// the trace from the system workload (tracegen's capture flow);
// -trace-in replays a real trace file instead (native binary/text,
// SNIA MSR-Cambridge CSV, or blkparse text, auto-detected), and
// -replay-mode, -trace-scale, and -trace-shift configure the pacing and
// the multiplexed scaling of the resulting custom off/on pair.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/tracein"
	"repro/internal/workload"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is the whole command: it parses args, runs the experiment, writes
// reports to stdout and everything else to stderr, and returns the exit
// code — 0 on success (and for -h), 1 when the run fails, 2 when the
// command line is rejected before anything runs.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs) }
	exp := fs.String("exp", "all", "experiment id (see the list below)")
	days := fs.Int("days", 0, "override days per run (0 = paper's counts)")
	hours := fs.Float64("hours", 0, "measured hours per day (0 = the paper's 15)")
	seed := fs.Uint64("seed", 0, "workload seed (0 = default)")
	jobs := fs.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	traceFile := fs.String("trace", "", "write request-lifecycle spans as JSONL to this file")
	sample := fs.Duration("sample", 0, "telemetry sampling period in sim time (0 = off)")
	teleFile := fs.String("telemetry", "", "write sampled time series as CSV to this file (default telemetry.csv when -sample is set)")
	metricsFile := fs.String("metrics", "", "record latency histograms and counters, one snapshot per job, to this file")
	metricsFormat := fs.String("metrics-format", "json", `metrics snapshot format: "json" or "prom"`)
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	faultPlan := fs.String("fault-plan", "", `inject device faults per this plan (e.g. "seed=3;twrite=1e-4;bad=40000-40015")`)
	faultSeed := fs.Uint64("fault-seed", 0, "override the fault plan's seed (implies an empty plan if -fault-plan is unset)")
	crashAfter := fs.Int64("crash-after", 0, "power loss after this many device operations (adds to the fault plan)")
	tenants := fs.Int("tenants", 0, "tenant-scale: pin the tenant population (0 = the registered sweep)")
	netLat := fs.Float64("net-lat", 0, "tenant-scale: one-way network latency in ms (0 = default 0.2)")
	netBW := fs.Float64("net-bw", 0, "tenant-scale: network bandwidth in MB/s (0 = default 100, negative = unlimited)")
	qos := fs.String("qos", "", `tenant-scale: force admission control "on" or "off" ("" = per-row setting)`)
	traceIn := fs.String("trace-in", "", "trace-replay: replay this trace file (binary/text/msr/blkparse, auto-detected) instead of the synthesized workload")
	replayMode := fs.String("replay-mode", "", `trace-replay: replay pacing, "open" (timestamp-faithful) or "closed" (think-time) ("" = the registered matrix)`)
	traceScale := fs.Int("trace-scale", 0, "trace-replay: multiplex this many address-shifted copies with matching time compression (0 = the registered matrix)")
	traceShift := fs.Int64("trace-shift", 0, "trace-replay: per-copy address shift in blocks for -trace-scale (0 = spread copies evenly)")
	layout := fs.String("layout", "", `raid-rebuild: collapse the matrix to one row of this layout ("raid5" or "raid6")`)
	spare := fs.Int("spare", 0, "raid-rebuild: hot spares for the -layout row")
	rebuildRate := fs.Float64("rebuild-rate", 0, "raid-rebuild: rebuild/scrub throttle for the -layout row, member blocks per simulated second (0 = default 200)")
	scrubInterval := fs.Duration("scrub-interval", 0, "raid-rebuild: scrub period in sim time for the -layout row (0 = scrub off)")
	if err := fs.Parse(args); err != nil {
		// The flag package has already printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// 0 selects the default for each of these, and the experiment code
	// reads any value below 1 as 0: an unrejected negative would run the
	// default experiment and exit 0.
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"days", float64(*days)}, {"hours", *hours}, {"jobs", float64(*jobs)},
		{"tenants", float64(*tenants)}, {"trace-scale", float64(*traceScale)}, {"spare", float64(*spare)},
	} {
		if !(f.value >= 0) { // also catches NaN
			fmt.Fprintf(stderr, "abrsim: invalid -%s %v (want 0 or more)\n", f.name, f.value)
			return 2
		}
	}
	if *qos != "" && *qos != "on" && *qos != "off" {
		fmt.Fprintf(stderr, "abrsim: unknown -qos %q (want on or off)\n", *qos)
		return 2
	}
	if *layout != "" && *layout != "raid5" && *layout != "raid6" {
		fmt.Fprintf(stderr, "abrsim: unknown -layout %q (want raid5 or raid6)\n", *layout)
		return 2
	}
	if _, err := tracein.ParseMode(*replayMode); err != nil {
		fmt.Fprintln(stderr, "abrsim:", err)
		return 2
	}
	if *metricsFormat != "json" && *metricsFormat != "prom" {
		fmt.Fprintf(stderr, "abrsim: unknown -metrics-format %q (want json or prom)\n", *metricsFormat)
		return 2
	}
	o := experiment.Options{
		Days: *days, Seed: *seed, Jobs: *jobs,
		Tenants: *tenants, NetLatencyMS: *netLat, NetBandwidthMBps: *netBW, QoS: *qos,
		RAIDLayout: *layout, RAIDSpare: *spare, RebuildRate: *rebuildRate,
		ScrubIntervalMS: scrubInterval.Seconds() * 1000,
		TraceIn:         *traceIn, ReplayMode: *replayMode,
		TraceScale: *traceScale, TraceShift: *traceShift,
	}
	plan, err := buildFaultPlan(*faultPlan, *faultSeed, *crashAfter)
	if err != nil {
		fmt.Fprintln(stderr, "abrsim:", err)
		return 2
	}
	o.Fault = plan
	if *hours > 0 {
		o.WindowMS = *hours * workload.HourMS
	}
	// The collector itself is near-free when spans and sampling are
	// off, and it carries the per-job engine event counts for the
	// end-of-run summary, so it is always on.
	o.Telemetry = &telemetry.Options{
		Spans:          *traceFile != "",
		SamplePeriodMS: sample.Seconds() * 1000,
		Metrics:        *metricsFile != "",
	}
	if *teleFile == "" && *sample > 0 {
		*teleFile = "telemetry.csv"
	}
	if *pprofAddr != "" {
		defer servePprof(*pprofAddr, stderr)()
	}
	if err := run(stdout, stderr, *exp, o, *jobs, *timeout, *traceFile, *teleFile, *metricsFile, *metricsFormat); err != nil {
		fmt.Fprintln(stderr, "abrsim:", err)
		return 1
	}
	return 0
}

// servePprof serves net/http/pprof on addr and returns what to call
// before exiting. A CPU profile is a window of wall time (one second,
// the way bench/ asks), and a run shorter than the window used to exit
// under the request and never be profiled at all; so if no CPU profile
// has been delivered yet, the one being taken is allowed to finish. A
// run that has delivered one exits at once, as it always did, cutting
// the slice in flight.
func servePprof(addr string, stderr io.Writer) (beforeExit func()) {
	var delivered atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/", http.DefaultServeMux) // where net/http/pprof registers
	mux.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		pprof.Profile(w, r)
		delivered.Store(true)
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "abrsim: pprof:", err)
		}
	}()
	return func() {
		if delivered.Load() {
			return
		}
		// Shutdown returns when no request is active; 30 s is the
		// longest window the profile handler takes unasked.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // exiting either way
	}
}

// buildFaultPlan assembles the fault plan from the CLI flags: the plan
// grammar first, then the seed and crash-point shorthands on top. All
// flags unset returns nil — the zero-overhead path.
func buildFaultPlan(spec string, seed uint64, crashAfter int64) (*fault.Plan, error) {
	if spec == "" && seed == 0 && crashAfter == 0 {
		return nil, nil
	}
	plan := &fault.Plan{}
	if spec != "" {
		p, err := fault.ParsePlan(spec)
		if err != nil {
			return nil, err
		}
		plan = &p
	}
	if seed != 0 {
		plan.Seed = seed
	}
	if crashAfter != 0 {
		plan.CrashAfterOps = crashAfter
	}
	return plan, nil
}

// flagGroups orders the -h summary: every flag is registered once with
// the flag package and listed here under its section. usage appends
// any flag missing from the groups to a trailing "other flags"
// section, so adding a flag without updating the groups can never
// silently drop it from the help text.
var flagGroups = []struct {
	title string
	names []string
}{
	{"simulation", []string{"exp", "days", "hours", "seed", "jobs", "timeout"}},
	{"observability", []string{"trace", "sample", "telemetry", "metrics", "metrics-format", "pprof"}},
	{"fault injection", []string{"fault-plan", "fault-seed", "crash-after"}},
	{"tenant scale", []string{"tenants", "net-lat", "net-bw", "qos"}},
	{"parity layouts", []string{"layout", "spare", "rebuild-rate", "scrub-interval"}},
	{"trace replay", []string{"trace-in", "replay-mode", "trace-scale", "trace-shift"}},
}

// usage prints the grouped flag help plus the registry's experiment
// ids, so the valid ids always match what is actually registered.
func usage(fs *flag.FlagSet) {
	out := fs.Output()
	fmt.Fprintf(out, "usage: abrsim [flags]\n")
	all := make(map[string]*flag.Flag)
	var order []string
	fs.VisitAll(func(f *flag.Flag) {
		all[f.Name] = f
		order = append(order, f.Name)
	})
	grouped := make(map[string]bool)
	for _, g := range flagGroups {
		fmt.Fprintf(out, "\n%s flags:\n", g.title)
		for _, name := range g.names {
			if f := all[name]; f != nil {
				printFlag(out, f)
			}
			grouped[name] = true
		}
	}
	first := true
	for _, name := range order {
		if grouped[name] {
			continue
		}
		if first {
			fmt.Fprintf(out, "\nother flags:\n")
			first = false
		}
		printFlag(out, all[name])
	}
	fmt.Fprintf(out, "\nexperiment ids:\n")
	for _, s := range experiment.Specs() {
		fmt.Fprintf(out, "  %-14s %s\n", s.ID, s.Description)
	}
}

// printFlag renders one flag in the style of flag.PrintDefaults.
func printFlag(out io.Writer, f *flag.Flag) {
	arg, usage := flag.UnquoteUsage(f)
	line := "  -" + f.Name
	if arg != "" {
		line += " " + arg
	}
	line += "\n    \t" + strings.ReplaceAll(usage, "\n", "\n    \t")
	switch f.DefValue {
	case "", "0", "false", "0s":
		// zero default: omit, as PrintDefaults does
	default:
		line += fmt.Sprintf(" (default %q)", f.DefValue)
	}
	fmt.Fprintln(out, line)
}

func run(stdout, stderr io.Writer, exp string, o experiment.Options, jobs int, timeout time.Duration, traceFile, teleFile, metricsFile, metricsFormat string) error {
	if _, ok := experiment.Lookup(exp); !ok {
		// Fail before the banner; RunSpec renders the valid-id list.
		_, err := experiment.RunSpec(context.Background(), exp, o, runner.Config{})
		return err
	}
	workers := jobs
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "abrsim: running %q on %d worker(s)\n", exp, workers)

	start := time.Now()
	cfg := runner.Config{
		Workers: jobs,
		Timeout: timeout,
		OnProgress: func(p runner.Progress) {
			fmt.Fprintf(stderr, "abrsim: %d/%d jobs, %.1f/%.0f sim-days, %.2f sim-days/sec\n",
				p.Done, p.Total, p.Units, p.TotalUnits, p.Rate())
		},
	}
	reports, rs, err := experiment.RunSpecFull(context.Background(), exp, o, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "abrsim: done in %.1fs\n", time.Since(start).Seconds())
	summarize(stderr, rs)
	if err := writeTelemetry(stderr, rs, traceFile, teleFile); err != nil {
		return err
	}
	if err := writeMetrics(stderr, rs, metricsFile, metricsFormat); err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprintln(stdout, r.Render())
	}
	return nil
}

// summarize prints the per-job harness metrics: wall clock, simulated
// days, throughput, engine events dispatched, and spans emitted.
func summarize(stderr io.Writer, rs *experiment.ResultSet) {
	if len(rs.Metrics) == 0 {
		return
	}
	fmt.Fprintf(stderr, "abrsim: %-24s %10s %9s %10s %12s %10s\n",
		"job", "wall", "sim-days", "days/sec", "events", "spans")
	for i, m := range rs.Metrics {
		var events, spans int64
		if i < len(rs.Collectors) && rs.Collectors[i] != nil {
			events = rs.Collectors[i].EngineEvents()
			spans = rs.Collectors[i].Events()
		}
		status := ""
		if m.Failed {
			status = "  FAILED"
		}
		fmt.Fprintf(stderr, "abrsim: %-24s %10s %9.1f %10.2f %12d %10d%s\n",
			m.Name, m.Wall.Round(time.Millisecond), m.Units, m.Rate(), events, spans, status)
	}
}

// writeTelemetry writes the concatenated per-job trace and time-series
// files. Collectors are concatenated in job order, so both files are
// byte-identical for any -jobs value.
func writeTelemetry(stderr io.Writer, rs *experiment.ResultSet, traceFile, teleFile string) error {
	write := func(path string, emit func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceFile != "" {
		if err := write(traceFile, func(f *os.File) error {
			return telemetry.WriteTrace(f, rs.Collectors)
		}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stderr, "abrsim: wrote request spans to %s\n", traceFile)
	}
	if teleFile != "" {
		if err := write(teleFile, func(f *os.File) error {
			return telemetry.WriteCSV(f, rs.Collectors)
		}); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
		fmt.Fprintf(stderr, "abrsim: wrote telemetry samples to %s\n", teleFile)
	}
	return nil
}

// writeMetrics writes the per-job metrics snapshots, in job order —
// byte-identical for any -jobs value.
func writeMetrics(stderr io.Writer, rs *experiment.ResultSet, path, format string) error {
	if path == "" {
		return nil
	}
	jobs := telemetry.MetricsSnapshots(rs.Collectors)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	if format == "prom" {
		err = metrics.WritePrometheus(f, jobs)
	} else {
		err = metrics.WriteJSON(f, jobs)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	fmt.Fprintf(stderr, "abrsim: wrote metrics snapshot to %s\n", path)
	return nil
}
