// Package workload synthesizes the two file-server workloads of the
// paper's evaluation (Section 5):
//
//   - the *system* file system: executables and libraries, mounted
//     read-only over NFS by 14 client workstations serving ~40 users.
//     Its reference stream is highly skewed (Figure 5: the 100 hottest
//     blocks absorb ~90% of requests) and stable from day to day; its
//     write traffic is pure bookkeeping (inode access-time updates)
//     concentrated on a few metadata blocks.
//
//   - the *users* file system: home directories of 10–20 users, mounted
//     read/write. Its stream is less skewed (Figure 7), includes file
//     creation and growth whose writes go to fresh blocks, and drifts
//     day to day as users change what they work on.
//
// The paper measured real users for weeks; those traces are not
// available, so these generators reproduce the *generating mechanisms*
// the paper names — process launches pulling shared libraries, cache
// write-back bursts, per-user working sets with daily drift — seeded and
// fully deterministic.
package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Clock constants, in simulated milliseconds.
const (
	HourMS = 3_600_000.0
	DayMS  = 24 * HourMS
	// DayStartMS is the start of the measurement window: 7am, as in the
	// paper (reference counts were measured 7am–10pm).
	DayStartMS = 7 * HourMS
	// DayEndMS is the end of the measurement window: 10pm.
	DayEndMS = 22 * HourMS
)

// Workload is a multi-day file-server load bound to a file system.
type Workload interface {
	// Name identifies the workload ("system" or "users").
	Name() string
	// Populate creates the file tree. Run the engine afterwards; it
	// completes asynchronously before day 0.
	Populate(done func(error))
	// RunDay schedules one day's traffic (day 0 is the first). done
	// fires when the last client finishes; run the engine to execute.
	RunDay(day int, done func(error))
}

// fileRef identifies one populated file.
type fileRef struct {
	ino    fs.Ino
	blocks int64
	path   string
}

// clientPool runs n concurrent closed-loop clients over a day's window,
// each executing jobs produced by job() separated by exponential think
// times.
type clientPool struct {
	eng   *sim.Engine
	rnd   *sim.Rand
	n     int
	think float64
	// job runs one client operation and calls next when it completes.
	job func(client int, next func())
	// hist, when non-nil, receives one end-to-end job latency (submit
	// to completion, in simulated ms) per finished job.
	hist *metrics.Histogram
}

// run schedules the pool over [start, end) and calls done when every
// client has stopped.
func (p *clientPool) run(start, end float64, done func(error)) {
	active := p.n
	for c := 0; c < p.n; c++ {
		c := c
		var loop func()
		var begin float64
		// One think-then-loop continuation per client, not one per job:
		// the pool schedules millions of jobs per simulated day, and the
		// continuation closure was the generator's last steady-state
		// allocation.
		finish := func() {
			if p.hist != nil {
				p.hist.Record(p.eng.Now() - begin)
			}
			p.eng.After(p.rnd.Exp(p.think), loop)
		}
		loop = func() {
			if p.eng.Now() >= end {
				active--
				if active == 0 && done != nil {
					done(nil)
				}
				return
			}
			if p.hist != nil {
				begin = p.eng.Now()
			}
			p.job(c, finish)
		}
		p.eng.At(start+p.rnd.Exp(p.think), loop)
	}
}

// readWhole reads an entire file sequentially via its handle and calls
// read with the result: the error of the open or of the read, nil data
// for an empty file.
func readWhole(f *fs.FS, ref fileRef, read func([][]byte, error)) {
	h, err := f.OpenIno(ref.ino)
	if err != nil {
		read(nil, err)
		return
	}
	n := h.SizeBlocks()
	if n == 0 {
		read(nil, nil)
		return
	}
	h.ReadAt(0, n, read)
}

// permute returns the identity permutation of n elements.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// drift perturbs a popularity permutation in place: each adjacent pair
// swaps with probability p. Small p models the paper's slowly-changing
// access patterns; large p models the users file system's heavier
// day-to-day variation.
func drift(rnd *sim.Rand, perm []int, p float64) {
	for i := 0; i+1 < len(perm); i++ {
		if rnd.Bool(p) {
			perm[i], perm[i+1] = perm[i+1], perm[i]
		}
	}
}

// jump relocates a few random elements to random positions, modelling a
// user abruptly switching projects.
func jump(rnd *sim.Rand, perm []int, moves int) {
	for m := 0; m < moves && len(perm) > 1; m++ {
		i, j := rnd.Intn(len(perm)), rnd.Intn(len(perm))
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// sizeBlocks draws a lognormal file size in blocks, clamped to
// [1, max].
func sizeBlocks(rnd *sim.Rand, mu, sigma float64, max int64) int64 {
	n := int64(rnd.LogNormal(mu, sigma)) + 1
	if n > max {
		n = max
	}
	return n
}

func nameOf(prefix string, i int) string {
	return fmt.Sprintf("%s%04d", prefix, i)
}
