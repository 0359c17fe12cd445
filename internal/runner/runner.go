// Package runner is the harness's parallel job engine: it fans a set of
// independent simulation jobs out across a worker pool, recovers
// per-job panics into errors, honours context cancellation and
// timeouts, and returns results in job order so parallel execution is
// observationally identical to sequential execution.
//
// Jobs must be self-contained: each owns its own sim.Engine and model
// stack and shares no mutable state with other jobs. Under that
// contract the pool's scheduling order cannot affect any job's result,
// and the ordered result slice makes downstream reporting byte-stable
// for any worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one independent unit of simulation work.
type Job struct {
	// Name identifies the job in errors and progress output.
	Name string
	// Units is the job's size in abstract work units (the experiment
	// harness uses simulated days); it only feeds progress reporting.
	Units float64
	// Run executes the job. It must not share mutable state with other
	// jobs and should return promptly once ctx is cancelled.
	Run func(ctx context.Context) (any, error)
}

// Progress is a snapshot of a pool run, delivered after each job
// completes.
type Progress struct {
	// Done and Total count jobs.
	Done, Total int
	// Units is the sum of completed jobs' Units.
	Units float64
	// TotalUnits is the sum over all jobs.
	TotalUnits float64
	// Elapsed is the wall-clock time since RunWithMetrics started.
	Elapsed time.Duration
}

// Rate returns completed units per second, or 0 before any time has
// elapsed.
func (p Progress) Rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return p.Units / p.Elapsed.Seconds()
}

// Config tunes a pool run.
type Config struct {
	// Workers is the number of concurrent jobs; values < 1 select
	// GOMAXPROCS(0).
	Workers int
	// Timeout bounds the whole run; 0 means no bound. On expiry the
	// shared context is cancelled, running jobs wind down, and
	// RunWithMetrics returns an error wrapping context.DeadlineExceeded.
	Timeout time.Duration
	// OnProgress, when non-nil, is called after each job completes. It
	// is called from worker goroutines under the pool's lock: keep it
	// fast, and do not call back into the pool.
	OnProgress func(Progress)
}

// Metric is one job's harness-level measurements, recorded for every
// job whatever its outcome.
type Metric struct {
	// Name is the job's name.
	Name string
	// Wall is the job's wall-clock execution time (zero for jobs that
	// were skipped after a cancellation).
	Wall time.Duration
	// Units is the job's declared size (the experiment harness uses
	// simulated days).
	Units float64
	// Failed reports whether the job returned an error.
	Failed bool
}

// Rate returns the job's units per wall-clock second — sim-days/sec in
// the experiment harness — or 0 when no time was measured.
func (m Metric) Rate() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return m.Units / m.Wall.Seconds()
}

// RunWithMetrics executes jobs on a worker pool and returns their
// results in job order (results[i] belongs to jobs[i], whatever order
// they finished in), with per-job metrics in the same order. A job that
// panics fails with an error carrying the panic value and stack instead
// of crashing the process. The first failure cancels the shared
// context; workers drain the remaining queue without starting new jobs,
// and RunWithMetrics reports the failed job with the lowest index so the
// returned error does not depend on scheduling. Metrics are recorded
// even when the run fails.
func RunWithMetrics(ctx context.Context, jobs []Job, cfg Config) ([]any, []Metric, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil, ctx.Err()
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var totalUnits float64
	for _, j := range jobs {
		totalUnits += j.Units
	}

	results := make([]any, len(jobs))
	errs := make([]error, len(jobs))
	skipped := make([]bool, len(jobs))
	metrics := make([]Metric, len(jobs))
	for i, j := range jobs {
		metrics[i] = Metric{Name: j.Name, Units: j.Units}
	}
	indexes := make(chan int)
	start := time.Now()

	var (
		mu        sync.Mutex
		done      int
		doneUnits float64
	)
	finish := func(i int, v any, err error) {
		results[i], errs[i] = v, err
		if err != nil {
			cancel()
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		doneUnits += jobs[i].Units
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Done: done, Total: len(jobs),
				Units: doneUnits, TotalUnits: totalUnits,
				Elapsed: time.Since(start),
			})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				if err := ctx.Err(); err != nil {
					skipped[i] = true
					metrics[i].Failed = true
					finish(i, nil, fmt.Errorf("not started: %w", err))
					continue
				}
				jobStart := time.Now()
				v, err := runJob(ctx, jobs[i])
				metrics[i].Wall = time.Since(jobStart)
				metrics[i].Failed = err != nil
				finish(i, v, err)
			}
		}()
	}
	for i := range jobs {
		indexes <- i
	}
	close(indexes)
	wg.Wait()

	// Prefer the lowest-index job that genuinely failed over jobs that
	// were merely skipped after cancellation, so the reported error does
	// not depend on which queued jobs the cancel happened to catch.
	for i, err := range errs {
		if err != nil && !skipped[i] {
			return results, metrics, fmt.Errorf("runner: job %q: %w", jobs[i].Name, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return results, metrics, fmt.Errorf("runner: job %q: %w", jobs[i].Name, err)
		}
	}
	return results, metrics, nil
}

// runJob invokes one job, converting a panic into an error so a single
// bad configuration fails its job rather than the whole process.
func runJob(ctx context.Context, job Job) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return job.Run(ctx)
}
