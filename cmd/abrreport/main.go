// Command abrreport replays a block-request trace against a simulated
// adaptive disk and prints the driver's measurement tables — the
// trace-driven simulation path the paper's original study ([Akyurek 93])
// was built on.
//
// Usage:
//
//	abrreport -trace day.trace [-disk toshiba|fujitsu] [-sched scan]
//	          [-format binary|text|msr|blkparse|auto] [-rearrange N]
//	          [-policy organ-pipe] [-telemetry FILE] [-metrics FILE]
//	          [-chrome IN [-chrome-out OUT]]
//
// The trace is read by internal/tracein, the reader abrsim -trace-in
// uses: tracegen's binary and text encodings, SNIA MSR-Cambridge CSV
// and blkparse text, or -format auto to detect which.
//
// With -rearrange N, the trace is replayed twice: once to learn the N
// hottest blocks, then again after rearranging them, and both
// measurements are reported.
//
// With -telemetry FILE, a time-series CSV written by abrsim -sample is
// summarized as a queue-depth-over-time table per job, plus the final
// fault-tolerance counters (faults, retries, remaps, unrecovered) when
// the run sampled them (abrsim -fault-plan). Volume runs sample those
// counters per member disk (disk0_faults, disk1_faults, ...); every
// sampled disk gets its own counter line, not just the first. Files
// without fault columns are summarized without the fault lines. The
// flag works alone or alongside -trace.
//
// With -metrics FILE, a metrics JSON snapshot written by abrsim
// -metrics is printed as one latency-percentile table per job: every
// histogram gets a row with its count, mean, p50, p90, p99, p999 and
// max (volume runs carry per-member rows, e.g.
// driver_service_ms{disk="3"}), followed by the job's counters and
// gauges.
//
// With -chrome IN, a JSONL span trace written by abrsim -trace is
// converted to Chrome trace-event JSON (load it in about://tracing or
// https://ui.perfetto.dev), written to -chrome-out or stdout. Each of
// these flags works alone or alongside the others.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tracein"
)

func main() {
	traceFile := flag.String("trace", "", "trace file to replay (required)")
	diskName := flag.String("disk", "toshiba", "disk model: toshiba or fujitsu")
	schedName := flag.String("sched", "scan", "head scheduling: scan, fcfs, cscan, sstf")
	rearrange := flag.Int("rearrange", 0, "rearrange the N hottest blocks between two replays")
	policy := flag.String("policy", "organ-pipe", "placement policy for -rearrange")
	format := flag.String("format", "binary", "trace format: binary, text, msr, blkparse, or auto (detect)")
	timeout := flag.Duration("timeout", 0, "abort the replay after this long (0 = no limit)")
	teleFile := flag.String("telemetry", "", "summarize a telemetry CSV written by abrsim -sample")
	metricsFile := flag.String("metrics", "", "print latency percentile tables from a metrics JSON snapshot written by abrsim -metrics")
	chromeIn := flag.String("chrome", "", "convert a JSONL span trace written by abrsim -trace to Chrome trace-event JSON")
	chromeOut := flag.String("chrome-out", "", "output file for -chrome (default stdout)")
	flag.Parse()

	summarized := false
	if *teleFile != "" {
		if err := reportTelemetry(os.Stdout, *teleFile); err != nil {
			fmt.Fprintln(os.Stderr, "abrreport:", err)
			os.Exit(1)
		}
		summarized = true
	}
	if *metricsFile != "" {
		if err := reportMetrics(os.Stdout, *metricsFile); err != nil {
			fmt.Fprintln(os.Stderr, "abrreport:", err)
			os.Exit(1)
		}
		summarized = true
	}
	if *chromeIn != "" {
		if err := convertChrome(*chromeIn, *chromeOut); err != nil {
			fmt.Fprintln(os.Stderr, "abrreport:", err)
			os.Exit(1)
		}
		summarized = true
	}
	if summarized && *traceFile == "" {
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, os.Stdout, *traceFile, *diskName, *schedName, *policy, *format, *rearrange); err != nil {
		fmt.Fprintln(os.Stderr, "abrreport:", err)
		os.Exit(1)
	}
}

// reportTelemetry reads a telemetry CSV and prints a queue-depth-over-
// time table per job: the sampling window is split into ten buckets and
// each row reports the bucket's sample count plus the mean and maximum
// observed queue depth. Malformed files produce an error, never a
// panic.
func reportTelemetry(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return summarizeTelemetry(w, f, path)
}

// summarizeTelemetry is reportTelemetry on an already-open CSV stream.
func summarizeTelemetry(w io.Writer, f io.Reader, path string) error {
	rows, err := telemetry.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: no samples", path)
	}

	// Group rows by job, preserving file order.
	var jobs []string
	byJob := map[string][]telemetry.SampleRow{}
	for _, r := range rows {
		if _, seen := byJob[r.Job]; !seen {
			jobs = append(jobs, r.Job)
		}
		byJob[r.Job] = append(byJob[r.Job], r)
	}

	for _, job := range jobs {
		rs := byJob[job]
		if _, ok := rs[0].Values["queue_depth"]; !ok {
			fmt.Fprintf(w, "%s: no queue_depth column in %d samples\n", job, len(rs))
			printFaultCounters(w, rs)
			fmt.Fprintln(w)
			continue
		}
		lo, hi := rs[0].TimeMS, rs[0].TimeMS
		for _, r := range rs {
			if r.TimeMS < lo {
				lo = r.TimeMS
			}
			if r.TimeMS > hi {
				hi = r.TimeMS
			}
		}
		const buckets = 10
		span := hi - lo
		if span <= 0 {
			span = 1
		}
		type agg struct {
			n   int
			sum float64
			max float64
		}
		bs := make([]agg, buckets)
		for _, r := range rs {
			i := int(float64(buckets) * (r.TimeMS - lo) / span)
			if i >= buckets {
				i = buckets - 1
			}
			qd := r.Values["queue_depth"]
			bs[i].n++
			bs[i].sum += qd
			if qd > bs[i].max {
				bs[i].max = qd
			}
		}
		fmt.Fprintf(w, "%s: queue depth over time (%d samples, sim %.1fh-%.1fh)\n",
			job, len(rs), lo/3_600_000, hi/3_600_000)
		fmt.Fprintf(w, "  %-16s %8s %10s %8s\n", "window", "samples", "mean qd", "max qd")
		for i, b := range bs {
			from := lo + span*float64(i)/buckets
			to := lo + span*float64(i+1)/buckets
			if b.n == 0 {
				fmt.Fprintf(w, "  %6.1fh-%6.1fh %8d %10s %8s\n",
					from/3_600_000, to/3_600_000, 0, "-", "-")
				continue
			}
			fmt.Fprintf(w, "  %6.1fh-%6.1fh %8d %10.2f %8.0f\n",
				from/3_600_000, to/3_600_000, b.n, b.sum/float64(b.n), b.max)
		}
		printFaultCounters(w, rs)
		fmt.Fprintln(w)
	}
	return nil
}

// printFaultCounters prints the job's final fault-tolerance counters.
// The columns exist only when the run sampled with an active fault plan
// (they are cumulative, so the last sample holds the totals); files
// without them are silently summarized without these lines. Volume runs
// tag the counters per member disk (disk<i>_faults, ...); one line is
// printed for every sampled disk — members without a fault plan are
// not sampled, so the indices need not be contiguous.
func printFaultCounters(w io.Writer, rs []telemetry.SampleRow) {
	last := rs[len(rs)-1].Values
	if _, ok := last["faults"]; ok {
		fmt.Fprintf(w, "  fault counters: %.0f faults, %.0f retries, %.0f remaps, %.0f unrecovered\n",
			last["faults"], last["retries"], last["remaps"], last["unrecovered"])
	}
	var disks []int
	for k := range last {
		rest, ok := strings.CutPrefix(k, "disk")
		if !ok {
			continue
		}
		num, ok := strings.CutSuffix(rest, "_faults")
		if !ok {
			continue
		}
		i, err := strconv.Atoi(num)
		if err != nil || i < 0 {
			continue
		}
		disks = append(disks, i)
	}
	sort.Ints(disks)
	for _, i := range disks {
		p := fmt.Sprintf("disk%d_", i)
		fmt.Fprintf(w, "  disk %d fault counters: %.0f faults, %.0f retries, %.0f remaps, %.0f unrecovered\n",
			i, last[p+"faults"], last[p+"retries"], last[p+"remaps"], last[p+"unrecovered"])
	}
}

// reportMetrics reads a metrics JSON snapshot and prints one latency-
// percentile table per job.
func reportMetrics(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	jobs, err := metrics.ReadJSON(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("%s: no job snapshots", path)
	}
	return summarizeMetrics(w, jobs)
}

// summarizeMetrics prints every job's histograms as a percentile table
// (count, mean, p50, p90, p99, p999, max), then its counters and
// gauges. Metrics appear in snapshot order — registration order, so
// per-member rows of a volume run group by disk label.
func summarizeMetrics(w io.Writer, jobs []metrics.JobSnapshot) error {
	for _, j := range jobs {
		var hists, scalars []metrics.MetricSnap
		for _, m := range j.Metrics {
			if m.Hist != nil {
				hists = append(hists, m)
			} else {
				scalars = append(scalars, m)
			}
		}
		fmt.Fprintf(w, "%s: metrics snapshot\n", j.Job)
		if len(hists) > 0 {
			fmt.Fprintf(w, "  %-34s %10s %9s %9s %9s %9s %9s %9s\n",
				"histogram", "count", "mean", "p50", "p90", "p99", "p999", "max")
			for _, m := range hists {
				h := m.Hist
				if h.Count == 0 {
					fmt.Fprintf(w, "  %-34s %10d %9s %9s %9s %9s %9s %9s\n",
						m.Name, 0, "-", "-", "-", "-", "-", "-")
					continue
				}
				fmt.Fprintf(w, "  %-34s %10d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
					m.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9),
					h.Quantile(0.99), h.Quantile(0.999), h.Max)
			}
		}
		for _, m := range scalars {
			fmt.Fprintf(w, "  %-34s %s = %s\n", m.Name, m.Kind, formatScalar(m.Value))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// formatScalar renders a counter or gauge value without trailing
// zeros, keeping integral counters integral.
func formatScalar(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// convertChrome converts a JSONL span trace to Chrome trace-event JSON
// on outPath, or stdout when outPath is empty.
func convertChrome(inPath, outPath string) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	if outPath == "" {
		return telemetry.WriteChromeTrace(os.Stdout, in)
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "abrreport: wrote Chrome trace to %s\n", outPath)
	return nil
}

// run replays the trace and prints the measurement report to w — twice,
// around a rearrangement of the hottest blocks, when rearrange > 0.
func run(ctx context.Context, w io.Writer, traceFile, diskName, schedName, policyName, format string, rearrange int) error {
	if traceFile == "" {
		return fmt.Errorf("-trace is required")
	}
	if rearrange < 0 {
		return fmt.Errorf("-rearrange %d: a negative count of blocks cannot be rearranged; want 0 (replay once, no rearrangement) or the number of hottest blocks to move", rearrange)
	}
	tf, err := tracein.ParseFormat(format)
	if err != nil {
		return fmt.Errorf("-format: %w", err)
	}
	recs, _, err := tracein.ReadFile(traceFile, tf, tracein.Options{})
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace is empty")
	}

	model, reserved, err := rig.PaperDisk(diskName)
	if err != nil {
		return fmt.Errorf("-disk: %w", err)
	}
	schedPolicy, err := sched.New(schedName)
	if err != nil {
		return err
	}
	r, err := rig.New(rig.Options{
		Ctx:  ctx,
		Disk: model, ReservedCyls: reserved, Sched: schedPolicy,
		// The whole trace must fit the monitoring table so the learning
		// replay sees every request.
		RequestTableSize: len(recs) + 1024,
	})
	if err != nil {
		return err
	}

	replay := func(label string) (*driver.Side, error) {
		rep, err := tracein.NewReplayer(r.Eng, r.Driver, recs, tracein.ReplayOptions{Mode: tracein.OpenLoop})
		if err != nil {
			return nil, err
		}
		done := false
		var res tracein.Result
		rep.Start(func(r tracein.Result) { res, done = r, true })
		r.Eng.Run()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !done {
			return nil, fmt.Errorf("replay stalled")
		}
		if res.Errors > 0 {
			fmt.Fprintf(os.Stderr, "abrreport: %s: %d of %d requests failed\n", label, res.Errors, res.Completed+res.Errors)
		}
		return r.Driver.ReadStats().All(), nil
	}

	report := func(label string, s *driver.Side) {
		fmt.Fprintf(w, "%s:\n", label)
		fmt.Fprintf(w, "  requests:             %d\n", s.Count())
		fmt.Fprintf(w, "  FCFS mean seek dist:  %.0f cylinders (%.2f ms)\n",
			s.FCFSDist.MeanDist(), s.FCFSMeanSeekMS(model.Seek))
		fmt.Fprintf(w, "  mean seek distance:   %.0f cylinders (%.2f ms)\n",
			s.SchedDist.MeanDist(), s.MeanSeekMS(model.Seek))
		fmt.Fprintf(w, "  zero-length seeks:    %.0f%%\n", s.SchedDist.ZeroFrac()*100)
		fmt.Fprintf(w, "  mean service time:    %.2f ms\n", s.MeanServiceMS())
		fmt.Fprintf(w, "  mean waiting time:    %.2f ms\n", s.MeanQueueingMS())
	}

	side, err := replay("replay 1")
	if err != nil {
		return err
	}
	report("original layout ("+schedName+")", side)

	if rearrange > 0 {
		placement, err := core.NewPolicy(policyName)
		if err != nil {
			return err
		}
		rear, err := core.New(r.Eng, r.Driver, core.Config{Policy: placement, MaxBlocks: rearrange})
		if err != nil {
			return err
		}
		rear.Poll()
		rdone := false
		var installed int
		var rerr error
		rear.Rearrange(func(n int, err error) { installed, rerr, rdone = n, err, true })
		r.Eng.Run()
		if err := r.Err(); err != nil {
			return err
		}
		if !rdone {
			return fmt.Errorf("rearrangement stalled")
		}
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(w, "\nrearranged %d blocks (%s placement)\n\n", installed, policyName)
		r.Driver.ReadStats() // discard movement-era stats
		side, err := replay("replay 2")
		if err != nil {
			return err
		}
		report("rearranged layout ("+schedName+")", side)
	}
	return nil
}
