// Command abrbench measures the simulation harness's raw speed and
// records it durably, so performance changes are observable and
// regressions are caught in CI.
//
// Usage:
//
//	abrbench [-out BENCH_sim.json] [-baseline FILE] [-check] [-reps N] [-jobs N]
//	         [-metrics FILE]
//
// It runs a fixed subset of the experiment registry (the same
// simulations abrsim runs, compressed) through the parallel runner,
// takes the best of -reps repetitions of each benchmark, and writes the
// measurements as JSON:
//
//	{
//	  "schema": 1,
//	  "go": "go1.24.0",
//	  "benchmarks": [
//	    {
//	      "name": "table2",            benchmark name
//	      "sim_days": 4,               simulated days covered
//	      "wall_ns": 2947000000,       best wall clock for the whole run
//	      "ns_per_sim_day": 736750000, wall_ns / sim_days
//	      "events": 12345678,          engine events dispatched (deterministic)
//	      "events_per_sec": 4189000,   events / wall seconds
//	      "allocs": 2345,              heap allocations during the run
//	      "allocs_per_event": 0.0002,  allocs / events
//	      "bytes": 9876,               heap bytes allocated during the run
//	      "volume": [...]              volume-scale only: per-configuration
//	                                   {config, disks, requests, req_per_sim_sec}
//	    }, ...
//	  ]
//	}
//
// With -baseline it prints each shared benchmark's events_per_sec
// against the baseline file, as information: sub-second rows swing
// 10-40 % on an unchanged binary, so timing verdicts are bench/
// -compare's (BENCHMARK.json), not this command's. With -check it exits
// non-zero if a benchmark's allocs_per_event grew beyond the baseline by
// more than 15% plus an absolute slack of 0.01 — deterministic up to
// the harness's own setup allocations, and the guard that keeps the
// metrics-instrumented hot path allocation-free. The event counts
// themselves are deterministic; only the wall-clock derived fields vary
// between runs.
//
// Every run records with metrics histograms enabled, so the measured
// hot path is the instrumented one. With -metrics FILE the
// volume-scale benchmark's per-job metrics snapshot is written as
// JSON, readable by abrreport -metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// bench is one fixed registry subset entry. The windows are compressed
// so the full battery runs in well under a CI minute while still
// dispatching tens of millions of events.
type bench struct {
	// name is the benchmark's stable identity in the JSON (what -check
	// matches against the baseline); id is the experiment registry id.
	name string
	id   string
	opts experiment.Options
}

func benches() []bench {
	return []bench{
		// The paper's core experiment: alternating off/on days of the
		// system workload on both disks.
		{name: "table2", id: "table2", opts: experiment.Options{Days: 2, WindowMS: 1 * workload.HourMS}},
		// The users file system: write-heavy, NFS write-through, daily
		// drift — the cache/fs write path dominates.
		{name: "table5", id: "table5", opts: experiment.Options{Days: 2, WindowMS: 1 * workload.HourMS}},
		// Fault-tolerant mode: retries, remaps and dual-slot table
		// writes on the hot path.
		{name: "faults", id: "faults", opts: experiment.Options{Days: 2, WindowMS: 30 * 60 * 1000}},
		// The multi-disk volume matrix: fan-out/fan-in across members
		// sharing one event queue, up to 8 spindles. Its
		// per-configuration throughputs ride along in the JSON so the
		// scale-out claim (4-disk stripe beats one disk) is recorded.
		{name: "volume-scale", id: "volume-scale", opts: experiment.Options{Days: 2, WindowMS: 15 * 60 * 1000}},
		// The multi-tenant server front end: network hops, token
		// buckets, admission control and the breaker layered on every
		// request, with 20k tenant buckets live. Tenants pinned so the
		// row measures one population, not the registered sweep.
		{name: "tenant-scale", id: "tenant-scale",
			opts: experiment.Options{WindowMS: 15 * 60 * 1000, Tenants: 20000}},
		// The parity matrix: every foreground write pays the RAID-5/6
		// read-modify-write, plus degraded reconstruction, a hot-spare
		// rebuild, and scrub sweeps interleaving with the workload.
		{name: "raid-rebuild", id: "raid-rebuild",
			opts: experiment.Options{Days: 2, WindowMS: 15 * 60 * 1000}},
		// Trace-driven replay: each row captures the system workload as
		// a block trace, scales it (the 4x rows multiplex address-shifted
		// copies), and replays it through tracein's pooled zero-alloc
		// replayer — open and closed loop, rearrangement off and on. The
		// per-row replay throughputs ride along like the volume rows.
		{name: "trace-replay", id: "trace-replay",
			opts: experiment.Options{WindowMS: 15 * 60 * 1000}},
	}
}

// Result is one benchmark measurement as serialized into the JSON file.
type Result struct {
	Name         string  `json:"name"`
	SimDays      float64 `json:"sim_days"`
	WallNS       int64   `json:"wall_ns"`
	NSPerSimDay  int64   `json:"ns_per_sim_day"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocsPerEvt float64 `json:"allocs_per_event"`
	Bytes        uint64  `json:"bytes"`
	// Volume holds the volume-backed matrices' per-configuration
	// simulated throughputs (deterministic, unlike the wall-clock
	// fields): the volume-scale rows, the raid-rebuild parity rows, and
	// the trace-replay rows; empty for every other benchmark.
	Volume []VolBench `json:"volume,omitempty"`
}

// VolBench records one volume configuration's simulated throughput.
type VolBench struct {
	Config       string  `json:"config"`
	Disks        int     `json:"disks"`
	Requests     int64   `json:"requests"`
	ReqPerSimSec float64 `json:"req_per_sim_sec"`
}

// File is the schema of BENCH_sim.json.
type File struct {
	Schema     int      `json:"schema"`
	Go         string   `json:"go"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "write measurements to this file")
	baseline := flag.String("baseline", "", "baseline BENCH_sim.json to compare against")
	check := flag.Bool("check", false, "exit non-zero if allocs_per_event grew vs -baseline")
	reps := flag.Int("reps", 2, "repetitions per benchmark; the best is recorded")
	jobs := flag.Int("jobs", 0, "parallel simulation jobs per run (0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics", "", "write the volume-scale benchmark's metrics snapshot (JSON) to this file")
	flag.Parse()

	f := File{Schema: 1, Go: runtime.Version()}
	for _, b := range benches() {
		r, snaps, err := runBench(b, *reps, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abrbench: %s: %v\n", b.id, err)
			os.Exit(1)
		}
		if *metricsOut != "" && b.name == "volume-scale" {
			if err := writeSnapshot(*metricsOut, snaps); err != nil {
				fmt.Fprintln(os.Stderr, "abrbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "abrbench: wrote metrics snapshot to %s\n", *metricsOut)
		}
		f.Benchmarks = append(f.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "abrbench: %-8s %8.1f sim-days  %6.2fs wall  %11d events  %10.0f events/sec  %.4f allocs/event\n",
			r.Name, r.SimDays, float64(r.WallNS)/1e9, r.Events, r.EventsPerSec, r.AllocsPerEvt)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abrbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "abrbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "abrbench: wrote %s\n", *out)

	if *baseline != "" {
		if err := compare(f, *baseline, *check); err != nil {
			fmt.Fprintln(os.Stderr, "abrbench:", err)
			os.Exit(1)
		}
	}
}

// runBench runs one benchmark reps times and keeps the fastest
// repetition, plus the per-job metrics snapshots (deterministic, so
// any repetition's are the same). The event count is deterministic
// across repetitions; the wall clock (and so events/sec) is what
// best-of smooths. Metrics histograms are always on, so the bench
// measures — and the alloc fields police — the instrumented hot path.
func runBench(b bench, reps, jobs int) (Result, []metrics.JobSnapshot, error) {
	best := Result{Name: b.name}
	var snaps []metrics.JobSnapshot
	for i := 0; i < reps; i++ {
		o := b.opts
		o.Jobs = jobs
		// Collectors carry engine event counts; Metrics turns on the
		// histogram recording whose cost the bench is guarding.
		o.Telemetry = &telemetry.Options{Metrics: true}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, rs, err := experiment.RunSpecFull(context.Background(), b.id, o, runner.Config{Workers: jobs})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Result{}, nil, err
		}
		snaps = telemetry.MetricsSnapshots(rs.Collectors)
		var events int64
		var simDays float64
		for _, c := range rs.Collectors {
			if c != nil {
				events += c.EngineEvents()
			}
		}
		for _, m := range rs.Metrics {
			simDays += m.Units
		}
		r := Result{
			Name:    b.name,
			SimDays: simDays,
			WallNS:  wall.Nanoseconds(),
			Events:  events,
			Allocs:  after.Mallocs - before.Mallocs,
			Bytes:   after.TotalAlloc - before.TotalAlloc,
		}
		if simDays > 0 {
			r.NSPerSimDay = int64(float64(r.WallNS) / simDays)
		}
		if wall > 0 {
			r.EventsPerSec = float64(events) / wall.Seconds()
		}
		if events > 0 {
			r.AllocsPerEvt = float64(r.Allocs) / float64(events)
		}
		for _, p := range append(rs.Volume, rs.RAID...) {
			r.Volume = append(r.Volume, VolBench{
				Config:       p.Experiment.Name,
				Disks:        p.Experiment.Devices.Disks,
				Requests:     p.Volume.Requests,
				ReqPerSimSec: p.Volume.Throughput,
			})
		}
		for _, p := range rs.Trace {
			r.Volume = append(r.Volume, VolBench{
				Config:       p.Experiment.Name,
				Disks:        p.Experiment.Devices.Disks,
				Requests:     int64(p.Replay.Records),
				ReqPerSimSec: p.Replay.Throughput,
			})
		}
		if best.WallNS == 0 || r.WallNS < best.WallNS {
			best = r
		}
	}
	return best, snaps, nil
}

// writeSnapshot writes per-job metrics snapshots as JSON.
func writeSnapshot(path string, snaps []metrics.JobSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteJSON(f, snaps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compare reports per-benchmark events/sec and allocs/event against the
// baseline file. With check set it returns an error when a shared
// benchmark allocates more per event; the events/sec delta, and new or
// removed benchmarks, only inform.
func compare(f File, path string, check bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	var failed []string
	for _, r := range f.Benchmarks {
		b, ok := old[r.Name]
		if !ok || b.EventsPerSec <= 0 {
			fmt.Fprintf(os.Stderr, "abrbench: %-8s no baseline\n", r.Name)
			continue
		}
		ratio := r.EventsPerSec / b.EventsPerSec
		fmt.Fprintf(os.Stderr, "abrbench: %-8s %10.0f -> %10.0f events/sec (%+.1f%%)  %.4f -> %.4f allocs/event\n",
			r.Name, b.EventsPerSec, r.EventsPerSec, (ratio-1)*100, b.AllocsPerEvt, r.AllocsPerEvt)
		// Allocation guard: the hot path must stay as allocation-free as
		// the baseline. 15% relative plus 0.01/event absolute slack
		// absorbs run-to-run noise in the harness's own setup allocations
		// without letting a per-event allocation (+1.0) through.
		if check && r.AllocsPerEvt > b.AllocsPerEvt*1.15+0.01 {
			failed = append(failed, fmt.Sprintf("%s allocs/event %.4f exceeds baseline %.4f",
				r.Name, r.AllocsPerEvt, b.AllocsPerEvt))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("allocation regression vs baseline: %v", failed)
	}
	return nil
}
