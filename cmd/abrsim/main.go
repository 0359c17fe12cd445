// Command abrsim runs the paper's experiments and prints the
// corresponding tables and figures with the paper's own numbers
// alongside for comparison. abrsim -h lists every flag, by section, and
// every experiment id in the registry; what follows is what -h does not
// say.
//
// Independent simulations (each disk, policy, and sweep configuration)
// fan out across -jobs workers, and the output — including the trace,
// telemetry, and metrics files — is byte-identical for any worker
// count. Fault draws are keyed by (seed, operation index) for the same
// reason.
//
// The default window is the paper's full 7am-10pm day; shapes are
// stable down to about -hours 1.
//
// -pprof profiles the harness itself; a run that ends before it has
// delivered any CPU profile waits for the one being taken.
//
// -fault-plan reaches every unit of the paper's single-disk experiments
// and of "shared". "faults" and "crash" define their own plans, and the
// matrices built on volumes ("volume-scale", "raid-rebuild",
// "tenant-scale", "trace-replay") carry per-member plans as part of
// their rows, so it does not apply to them. -fault-seed and -crash-after
// are shorthands that override the plan's seed and power-loss point.
//
// The flags of the tenant-scale, parity-layout and trace-replay sections
// are ignored at their zero values, so the registered matrices (and
// their goldens) run unchanged; set, -layout collapses "raid-rebuild" to
// one custom row and the trace flags collapse "trace-replay" to one
// custom rearranging run, whose learning pass is its off row, while the
// tenant flags resize and override every row of "tenant-scale". A trace
// file's format (native binary/text, SNIA MSR-Cambridge CSV, blkparse
// text) is auto-detected.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// flagDecl declares one flag, once: the FlagSet, the grouped -h and the
// rejections are all made from it. dest is where the value lands (a
// *string, *int, *int64, *uint64, *float64 or *time.Duration, holding the
// default) and want the accepted range, in the words a rejection uses:
// empty accepts anything, atLeast0 holds a number to zero or more, and
// anything else lists a string flag's values as "a or b".
type flagDecl struct {
	name  string
	dest  any
	usage string
	want  string
}

// atLeast0 is the range of the numeric flags whose zero selects a
// default: the experiment code reads any value below it as zero too, so
// an unrejected negative would run the default experiment and exit 0.
const atLeast0 = "0 or more"

// define registers the flag with its destination's current value as the
// default.
func (d flagDecl) define(fs *flag.FlagSet) {
	switch p := d.dest.(type) {
	case *string:
		fs.StringVar(p, d.name, *p, d.usage)
	case *int:
		fs.IntVar(p, d.name, *p, d.usage)
	case *int64:
		fs.Int64Var(p, d.name, *p, d.usage)
	case *uint64:
		fs.Uint64Var(p, d.name, *p, d.usage)
	case *float64:
		fs.Float64Var(p, d.name, *p, d.usage)
	case *time.Duration:
		fs.DurationVar(p, d.name, *p, d.usage)
	default:
		panic(fmt.Sprintf("abrsim: flag -%s: no flag type for %T", d.name, d.dest))
	}
}

// accepted reports whether the parsed value is in the declared range.
func (d flagDecl) accepted() bool {
	switch v := reflect.ValueOf(d.dest).Elem(); {
	case d.want == "":
		return true
	case v.Kind() == reflect.String:
		return slices.Contains(strings.Split(d.want, " or "), v.String())
	case v.CanFloat():
		return v.Float() >= 0 // false for NaN too
	default:
		return v.Int() >= 0
	}
}

// cli is the whole command: it parses args, runs the experiment, writes
// reports to stdout and everything else to stderr, and returns the exit
// code — 0 on success (and for -h), 1 when the run fails, 2 when the
// command line is rejected before anything runs.
func cli(argv []string, stdout, stderr io.Writer) int {
	var o experiment.Options
	exp, metricsFormat := "all", "json"
	var traceFile, teleFile, metricsFile, pprofAddr, fplan string
	var hours float64
	var timeout, sample, scrubInterval time.Duration
	var faultSeed uint64
	var jobs int
	var crashAfter int64
	// The command line, by -h section. -qos, -layout and -replay-mode
	// name choices experiment.Options validates itself, for library
	// callers too; it is asked below.
	sections := []struct {
		title string
		flags []flagDecl
	}{
		{"simulation", []flagDecl{
			{"exp", &exp, "experiment id (see the list below)", ""},
			{"days", &o.Days, "override days per run (0 = paper's counts)", atLeast0},
			{"hours", &hours, "measured hours per day (0 = the paper's 15)", atLeast0},
			{"seed", &o.Seed, "workload seed (0 = default)", ""},
			{"jobs", &jobs, "parallel simulation jobs (0 = GOMAXPROCS)", atLeast0},
			{"timeout", &timeout, "abort the whole run after this long (0 = no limit)", atLeast0},
		}},
		{"observability", []flagDecl{
			{"trace", &traceFile, "write request-lifecycle spans as JSONL to this file", ""},
			{"sample", &sample, "telemetry sampling period in sim time (0 = off)", atLeast0},
			{"telemetry", &teleFile, "write sampled time series as CSV to this file (default telemetry.csv when -sample is set)", ""},
			{"metrics", &metricsFile, "record latency histograms and counters, one snapshot per job, to this file", ""},
			{"metrics-format", &metricsFormat, `metrics snapshot format: "json" or "prom"`, "json or prom"},
			{"pprof", &pprofAddr, "serve net/http/pprof on this address (e.g. localhost:6060)", ""},
		}},
		{"fault injection", []flagDecl{
			{"fault-plan", &fplan, `inject device faults per this plan (e.g. "seed=3;twrite=1e-4;bad=40000-40015")`, ""},
			{"fault-seed", &faultSeed, "override the fault plan's seed (implies an empty plan if -fault-plan is unset)", ""},
			{"crash-after", &crashAfter, "power loss after this many device operations (adds to the fault plan)", atLeast0},
		}},
		{"tenant scale", []flagDecl{
			{"tenants", &o.Tenants, "tenant-scale: pin the tenant population (0 = the registered sweep)", atLeast0},
			{"net-lat", &o.NetLatencyMS, "tenant-scale: one-way network latency in ms (0 = default 0.2)", atLeast0},
			{"net-bw", &o.NetBandwidthMBps, "tenant-scale: network bandwidth in MB/s (0 = default 100, negative = unlimited)", ""},
			{"qos", &o.QoS, `tenant-scale: force admission control "on" or "off" ("" = per-row setting)`, ""},
		}},
		{"parity layouts", []flagDecl{
			{"layout", &o.RAIDLayout, `raid-rebuild: collapse the matrix to one row of this layout ("raid5" or "raid6")`, ""},
			{"spare", &o.RAIDSpare, "raid-rebuild: hot spares for the -layout row", atLeast0},
			{"rebuild-rate", &o.RebuildRate, "raid-rebuild: rebuild/scrub throttle for the -layout row, member blocks per simulated second (0 = default 200)", atLeast0},
			{"scrub-interval", &scrubInterval, "raid-rebuild: scrub period in sim time for the -layout row (0 = scrub off)", atLeast0},
		}},
		{"trace replay", []flagDecl{
			{"trace-in", &o.TraceIn, "trace-replay: replay this trace file (binary/text/msr/blkparse, auto-detected) instead of the synthesized workload", ""},
			{"replay-mode", &o.ReplayMode, `trace-replay: replay pacing, "open" (timestamp-faithful) or "closed" (think-time) ("" = the registered matrix)`, ""},
			{"trace-scale", &o.TraceScale, "trace-replay: multiplex this many address-shifted copies with matching time compression (0 = the registered matrix)", atLeast0},
			{"trace-shift", &o.TraceShift, "trace-replay: per-copy address shift in blocks for -trace-scale (0 = spread copies evenly)", atLeast0},
		}},
	}
	fs := flag.NewFlagSet("abrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, sec := range sections {
		for _, d := range sec.flags {
			d.define(fs)
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: abrsim [flags]\n")
		for _, sec := range sections {
			fmt.Fprintf(stderr, "\n%s flags:\n", sec.title)
			for _, d := range sec.flags {
				printFlag(stderr, fs.Lookup(d.name))
			}
		}
		// From the registry, so the valid ids always match what is
		// actually registered.
		fmt.Fprintf(stderr, "\nexperiment ids:\n")
		for _, s := range experiment.Specs() {
			fmt.Fprintf(stderr, "  %-14s %s\n", s.ID, s.Description)
		}
	}
	if err := fs.Parse(argv); err != nil {
		// The flag package has already printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, sec := range sections {
		for _, d := range sec.flags {
			if !d.accepted() {
				v := fs.Lookup(d.name).Value.String()
				if _, ok := d.dest.(*string); ok {
					v = strconv.Quote(v)
				}
				fmt.Fprintf(stderr, "abrsim: invalid -%s %s (want %s)\n", d.name, v, d.want)
				return 2
			}
		}
	}
	var bad *experiment.OptionError
	if err := o.Validate(); errors.As(err, &bad) {
		// Name the flag that set the field, not the field.
		field := reflect.ValueOf(&o).Elem().FieldByName(bad.Field).Addr().Interface()
		for _, sec := range sections {
			for _, d := range sec.flags {
				if d.dest == field {
					fmt.Fprintf(stderr, "abrsim: invalid -%s %q (want %s)\n", d.name, bad.Value, bad.Want)
				}
			}
		}
		return 2
	}
	plan, err := buildFaultPlan(fplan, faultSeed, crashAfter)
	if err != nil {
		fmt.Fprintln(stderr, "abrsim:", err)
		return 2
	}
	o.Fault = plan
	o.WindowMS = hours * workload.HourMS
	o.ScrubIntervalMS = scrubInterval.Seconds() * 1000
	// The collector itself is near-free when spans and sampling are
	// off, and it carries the per-job engine event counts for the
	// end-of-run summary, so it is always on.
	o.Telemetry = &telemetry.Options{
		Spans:          traceFile != "",
		SamplePeriodMS: sample.Seconds() * 1000,
		Metrics:        metricsFile != "",
	}
	if teleFile == "" && sample > 0 {
		teleFile = "telemetry.csv"
	}
	if pprofAddr != "" {
		beforeExit, err := servePprof(pprofAddr, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "abrsim: pprof:", err)
			return 1
		}
		defer beforeExit()
	}
	if err := run(stdout, stderr, exp, o, jobs, timeout, traceFile, teleFile, metricsFile, metricsFormat); err != nil {
		fmt.Fprintln(stderr, "abrsim:", err)
		return 1
	}
	return 0
}

// servePprof serves net/http/pprof on addr and returns what to call
// before exiting. It binds addr before it returns, so a profile request
// made as soon as the run starts finds a listener, and a bind error is
// reported before anything is simulated. A CPU profile is a window of
// wall time (one second, the way bench/ asks), and a run shorter than
// the window used to exit under the request and never be profiled at
// all; so if no CPU profile has been delivered yet, the one being taken
// is allowed to finish. A run that has delivered one exits at once, as
// it always did, cutting the slice in flight.
func servePprof(addr string, stderr io.Writer) (beforeExit func(), err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var delivered atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/", http.DefaultServeMux) // where net/http/pprof registers
	mux.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		pprof.Profile(w, r)
		delivered.Store(true)
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
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
	}, nil
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
