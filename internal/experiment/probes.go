package experiment

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// This file wires the telemetry sampler's standard probe set into an
// experiment's model stack. Probes are registered in a fixed order —
// the CSV column order — and read only deterministic model state, so
// the time series is byte-identical for any worker count.

// registerStackProbes registers the probes shared by every experiment:
// driver queue state, lifetime request counters, block-table occupancy,
// rearrangement I/O, cumulative head travel, and scheduler queue
// pressure.
func registerStackProbes(col *telemetry.Collector, r *rig.Rig, sc *sched.Counting) {
	drv := r.Driver
	dsk := r.Disk
	col.AddProbe("queue_depth", func() float64 { return float64(drv.QueueLen()) })
	col.AddProbe("outstanding", func() float64 { return float64(drv.Outstanding()) })
	col.AddProbe("completed", func() float64 { return float64(drv.Counters().Requests) })
	col.AddProbe("redirected", func() float64 { return float64(drv.Counters().Redirected) })
	col.AddProbe("rearrange_io", func() float64 { return float64(drv.Counters().InternalIO) })
	col.AddProbe("bt_len", func() float64 { return float64(drv.BlockTableLen()) })
	col.AddProbe("seek_cyls", func() float64 { return float64(dsk.SeekCylinders()) })
	if sc != nil {
		col.AddProbe("sched_mean_qlen", sc.MeanQueue)
	}
}

// registerCacheProbes registers hit-rate probes for one buffer cache
// under the given column prefix ("cache", "meta", "sys_cache", ...).
func registerCacheProbes(col *telemetry.Collector, prefix string, c *cache.Cache) {
	col.AddProbe(prefix+"_hit_rate", func() float64 {
		hits, misses, _ := c.Stats()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
}

// registerFaultProbes registers one disk's fault-tolerance counters as
// sampler columns under the given prefix: injected faults, transient
// retries, bad-block remaps, and unrecovered failures. Callers register
// them only for a disk with a fault injector, so fault-free runs keep
// their exact column set (and golden output).
func registerFaultProbes(col *telemetry.Collector, prefix string, drv *driver.Driver) {
	col.AddProbe(prefix+"faults", func() float64 { return float64(drv.Counters().Faults) })
	col.AddProbe(prefix+"retries", func() float64 { return float64(drv.Counters().Retries) })
	col.AddProbe(prefix+"remaps", func() float64 { return float64(drv.Counters().Remaps) })
	col.AddProbe(prefix+"unrecovered", func() float64 { return float64(drv.Counters().Unrecovered) })
}

// registerRearrangerProbes registers hot-list probes: how many blocks
// the analyzer tracks and how much the hot set churned since the last
// sample — the paper's Figure 5 convergence signal at sampler
// resolution.
func registerRearrangerProbes(col *telemetry.Collector, rear *core.Rearranger) {
	col.AddProbe("hot_tracked", func() float64 { return float64(rear.Counter().Len()) })
	// Churn compares the current top-64 hot blocks against the
	// previous sample's; the closure keeps the prior set.
	const topK = 64
	prev := map[int64]bool{}
	col.AddProbe("hot_churn", func() float64 {
		top := rear.Counter().Top(topK)
		next := make(map[int64]bool, len(top))
		churn := 0
		for _, bc := range top {
			next[bc.Block] = true
			if !prev[bc.Block] {
				churn++
			}
		}
		prev = next
		return float64(churn)
	})
}
