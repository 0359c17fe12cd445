// Command abrreport replays a block-request trace against a simulated
// adaptive disk and prints the driver's measurement tables — the
// trace-driven simulation path the paper's original study ([Akyurek 93])
// was built on.
//
// Usage:
//
//	abrreport -trace day.trace [-disk toshiba|fujitsu] [-sched scan]
//	          [-rearrange N] [-policy organ-pipe] [-telemetry FILE]
//	          [-metrics FILE] [-chrome IN [-chrome-out OUT]]
//
// The replay is a trace experiment on one disk, run by
// experiment.Execute as abrsim -exp trace-replay runs its rows. Its
// format is detected, as abrsim -trace-in detects it: tracegen's
// binary and text encodings, SNIA MSR-Cambridge CSV or blkparse text.
// Records addressed past the disk are folded onto it, as abrsim
// -trace-in folds them.
//
// With -rearrange N, the same run replays the trace twice: the first
// pass learns the N hottest blocks, which are rearranged before the
// second. The first pass is the original layout's report, and the
// second's follows it.
//
// With -telemetry FILE, a time-series CSV written by abrsim -sample is
// summarized as a queue-depth-over-time table per job, plus the final
// fault-tolerance counters. The columns are the run's metrics registry,
// under the names -metrics uses: the queue depth is the sum of the
// driver_queue_len columns over every disk label, and the counters are
// driver_faults, driver_retries, driver_remaps and driver_unrecovered,
// one line per disk label (a volume's members are disk="0", disk="1",
// ...). A disk whose four counters are all zero — every disk of a run
// without abrsim -fault-plan — gets no line. The flag works alone or
// alongside -trace.
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
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/tracein"
)

func main() {
	traceFile := flag.String("trace", "", "trace file to replay (required)")
	diskName := flag.String("disk", "toshiba", "disk model: toshiba or fujitsu")
	schedName := flag.String("sched", "scan", "head scheduling: scan, fcfs, cscan, sstf")
	rearrange := flag.Int("rearrange", 0, "rearrange the N hottest blocks between two replays")
	policy := flag.String("policy", "organ-pipe", "placement policy for -rearrange")
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
	if err := run(ctx, os.Stdout, *traceFile, *diskName, *schedName, *policy, *rearrange); err != nil {
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
		if _, ok := queueDepth(rs[0]); !ok {
			fmt.Fprintf(w, "%s: no driver_queue_len column in %d samples\n", job, len(rs))
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
			qd, _ := queueDepth(r)
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

// queueDepth sums a sample's driver_queue_len columns over every disk
// label; ok is false when the sample has none.
func queueDepth(r telemetry.SampleRow) (qd float64, ok bool) {
	for name, v := range r.Values {
		if base, _ := splitName(name); base == "driver_queue_len" {
			qd, ok = qd+v, true
		}
	}
	return qd, ok
}

// printFaultCounters prints the job's final fault-tolerance counters
// from its last sample (they are cumulative, so it holds the totals):
// one line per disk label, "fault counters" for a lone disk's unlabelled
// counters and "disk i fault counters" for member i of a volume, in
// disk order. A disk whose four counters are all zero gets no line.
func printFaultCounters(w io.Writer, rs []telemetry.SampleRow) {
	byDisk := map[string]*[4]float64{}
	for name, v := range rs[len(rs)-1].Values {
		base, disk := splitName(name)
		i := slices.Index([]string{"driver_faults", "driver_retries", "driver_remaps", "driver_unrecovered"}, base)
		if i < 0 {
			continue
		}
		if byDisk[disk] == nil {
			byDisk[disk] = new([4]float64)
		}
		byDisk[disk][i] = v
	}
	var disks []string
	for d, c := range byDisk {
		if *c != [4]float64{} {
			disks = append(disks, d)
		}
	}
	// Shorter first: "" (a lone disk), then the indices in numeric order.
	slices.SortFunc(disks, func(a, b string) int { return cmp.Or(len(a)-len(b), strings.Compare(a, b)) })
	for _, d := range disks {
		c, what := byDisk[d], "fault counters"
		if d != "" {
			what = "disk " + d + " " + what
		}
		fmt.Fprintf(w, "  %s: %.0f faults, %.0f retries, %.0f remaps, %.0f unrecovered\n", what, c[0], c[1], c[2], c[3])
	}
}

// splitName splits a registry name into its base and the value of its
// disk label: driver_faults{disk="1"} is ("driver_faults", "1"), and a
// name without a disk label has disk "".
func splitName(name string) (base, disk string) {
	base, labels, _ := strings.Cut(name, "{")
	for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if v, ok := strings.CutPrefix(pair, `disk="`); ok {
			return base, strings.TrimSuffix(v, `"`)
		}
	}
	return base, ""
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

// run replays the trace through experiment.Execute on a bare disk and
// prints the report of each replay pass to w: the original layout's,
// and with rearrange > 0 — the first pass then learns the hottest
// blocks, which are rearranged before a second — the rearranged
// layout's after it.
func run(ctx context.Context, w io.Writer, traceFile, diskName, schedName, policyName string, rearrange int) error {
	if traceFile == "" {
		return fmt.Errorf("-trace is required")
	}
	if rearrange < 0 {
		return fmt.Errorf("-rearrange %d: a negative count of blocks cannot be rearranged; want 0 (replay once, no rearrangement) or the number of hottest blocks to move", rearrange)
	}
	e := experiment.Experiment{
		Name:     traceFile,
		Devices:  experiment.Devices{Disk: diskName, Sched: schedName},
		Workload: experiment.Workload{Source: experiment.Trace, TracePath: traceFile, Mode: tracein.OpenLoop},
	}
	if rearrange > 0 {
		e.Rearrange = &experiment.Rearrange{Policy: policyName, Blocks: rearrange}
	}
	r, err := experiment.Execute(ctx, e)
	if err != nil {
		return err
	}
	if t := r.Replay; t.Errors > 0 {
		fmt.Fprintf(os.Stderr, "abrreport: %d of %d requests failed\n", t.Errors, t.Records)
	}
	report(w, "original layout ("+schedName+")", r.Days[0].Metrics(r.Curve, experiment.AllRequests))
	if rearrange > 0 {
		fmt.Fprintf(w, "\nrearranged %d blocks (%s placement)\n\n", r.Installed[0], policyName)
		report(w, "rearranged layout ("+schedName+")", r.Days[1].Metrics(r.Curve, experiment.AllRequests))
	}
	return nil
}

// report prints one replay pass's measurements.
func report(w io.Writer, label string, m experiment.Metrics) {
	fmt.Fprintf(w, "%s:\n", label)
	fmt.Fprintf(w, "  requests:             %d\n", m.Count)
	fmt.Fprintf(w, "  FCFS mean seek dist:  %.0f cylinders (%.2f ms)\n", m.FCFSDist, m.FCFSSeekMS)
	fmt.Fprintf(w, "  mean seek distance:   %.0f cylinders (%.2f ms)\n", m.Dist, m.SeekMS)
	fmt.Fprintf(w, "  zero-length seeks:    %.0f%%\n", m.ZeroSeekPct)
	fmt.Fprintf(w, "  mean service time:    %.2f ms\n", m.ServiceMS)
	fmt.Fprintf(w, "  mean waiting time:    %.2f ms\n", m.WaitMS)
}
