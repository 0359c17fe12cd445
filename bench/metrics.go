package main

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base's median by which a host-clock
	// metric may worsen before that counts as a regression. There is one
	// per metric: BENCHMARK.json carries it to the PR driver and -compare
	// applies the same figure between two result files. The driver's gate
	// has no "unresolved": it refuses the benchmark when ten runs spread
	// wider than the bound or two tens differ in median by more, and a
	// later PR whose median is worse by more. So the bound has to clear
	// what this box does to one commit, and the shared 2-core VM slows by
	// 10-40 % for minutes at a time, CPU time rising with wall time
	// (README.md has the runs: ten-run quartile spreads of 2-5 % in a
	// quiet pass and 7-16 % in the next two, suite medians up to 44 %
	// apart). The timings get the most the contract allows. Memory does
	// not follow the box's speed and holds a tighter bound.
	Bound float64 `json:"bound,omitempty"`
	// floor is an absolute allowance -compare takes when it is larger
	// than the share: for a metric of a fraction of a second, where
	// process start-up jitter exceeds the share.
	floor float64
}

// hostMetrics are the end-to-end metrics on the host clock: what the
// person running abrsim waits and pays for. They are measured on plain
// reps only (no observability flag) and are the metrics BENCHMARK.json
// bounds. Simulated-clock metrics have no bound: they repeat exactly for
// a seed, so any difference is a model change.
var hostMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, floor: 0.05},
}

// simMetrics are the end-to-end metrics on the simulated clock: what the
// modelled disks, volumes and server deliver — the paper's result. Each
// applies to the workloads whose report prints it (see README.md) and
// repeats exactly for a seed.
var simMetrics = []metricDef{
	{Name: "sim_resp_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_req_per_s", Unit: "req/sim-s", Better: "higher"},
	{Name: "seek_reduction_pct", Unit: "%", Better: "higher"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
}

// countMetrics are the per-layer counts and simulated latencies read
// from the observed run's report, job table and -metrics snapshot.
var countMetrics = []metricDef{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.build_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_req", Unit: "ratio", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runner.jobs", Unit: "count", Better: "higher"},
	{Name: "runner.job_wall_max_s", Unit: "s", Better: "lower"},
	{Name: "runner.jobs2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "driver.requests", Unit: "count", Better: "lower"},
	{Name: "driver.redirected_share", Unit: "ratio", Better: "higher"},
	{Name: "driver.internal_io", Unit: "count", Better: "lower"},
	{Name: "driver.service_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "driver.queue_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "driver.seek_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "driver.unrecovered", Unit: "count", Better: "lower"},
	{Name: "sched.queue_len_mean", Unit: "count", Better: "lower"},
	{Name: "cache.data_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.meta_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.writebacks", Unit: "count", Better: "lower"},
	{Name: "fs.reads", Unit: "count", Better: "higher"},
	{Name: "fs.read_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "fs.write_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "workload.jobs", Unit: "count", Better: "higher"},
	{Name: "workload.job_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.installed_blocks", Unit: "count", Better: "higher"},
	{Name: "volume.requests", Unit: "count", Better: "higher"},
	{Name: "volume.degraded_reads", Unit: "count", Better: "lower"},
	{Name: "volume.parity_rw", Unit: "count", Better: "lower"},
	{Name: "volume.rebuilt_blocks", Unit: "count", Better: "higher"},
	{Name: "volume.resp_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.issued", Unit: "count", Better: "higher"},
	{Name: "server.ok", Unit: "count", Better: "higher"},
	{Name: "server.throttled", Unit: "count", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.expired", Unit: "count", Better: "lower"},
	{Name: "server.deadline_miss", Unit: "count", Better: "lower"},
	{Name: "server.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "server.gold_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tracein.records", Unit: "count", Better: "higher"},
	{Name: "tracein.replay_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tracein.open_lag_ms", Unit: "ms", Better: "lower"},
}

// perLayerMetrics is the whole per-layer ledger, in report order: the
// CPU share of each layer, the simulated-clock end-to-end figures (which
// BENCHMARK.json cannot bound: none applies to all six workloads, and
// fail_share is 0 on a healthy run), the counts, and the layer drivers'
// time and allocations per operation.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: "lower"})
	}
	defs = append(defs, simMetrics...)
	defs = append(defs, countMetrics...)
	for _, d := range layerDrivers {
		defs = append(defs,
			metricDef{Name: d.name + "_ns", Unit: "ns/op", Better: "lower"},
			metricDef{Name: d.name + "_allocs", Unit: "allocs/op", Better: "lower"})
	}
	return defs
}
