package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func job(name string, fn func(ctx context.Context) (any, error)) Job {
	return Job{Name: name, Units: 1, Run: fn}
}

func TestResultsInJobOrder(t *testing.T) {
	// Jobs finish in reverse submission order (later jobs sleep less),
	// yet results must come back in job order.
	var jobs []Job
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, job(fmt.Sprint(i), func(context.Context) (any, error) {
			time.Sleep(time.Duration(8-i) * time.Millisecond)
			return i, nil
		}))
	}
	results, _, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v.(int) != i {
			t.Fatalf("results out of order: %v", results)
		}
	}
}

func TestWorkerCountIndependence(t *testing.T) {
	mk := func() []Job {
		var jobs []Job
		for i := 0; i < 10; i++ {
			i := i
			jobs = append(jobs, job(fmt.Sprint(i), func(context.Context) (any, error) {
				return i * i, nil
			}))
		}
		return jobs
	}
	seq, _, err := RunWithMetrics(context.Background(), mk(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunWithMetrics(context.Background(), mk(), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("worker count changed results: %v vs %v", seq, par)
		}
	}
}

func TestPanicBecomesError(t *testing.T) {
	jobs := []Job{
		job("ok", func(context.Context) (any, error) { return "fine", nil }),
		job("boom", func(context.Context) (any, error) { panic("kapow") }),
	}
	_, _, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 2})
	if err == nil {
		t.Fatal("panicking job did not fail the run")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kapow") {
		t.Errorf("error lacks job name or panic value: %v", err)
	}
}

func TestFirstErrorCancelsRemaining(t *testing.T) {
	// One worker: job 1 fails, jobs 2..9 must be skipped without
	// running, and the reported error must be job 1's real failure, not
	// a skipped job's cancellation.
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := []Job{
		job("ok", func(context.Context) (any, error) { ran.Add(1); return nil, nil }),
		job("bad", func(context.Context) (any, error) { ran.Add(1); return nil, boom }),
	}
	for i := 2; i < 10; i++ {
		jobs = append(jobs, job(fmt.Sprint(i), func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		}))
	}
	_, _, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure", err)
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error does not name the failed job: %v", err)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("%d jobs ran after failure, want 2", got)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []Job{
		job("waits", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}),
		job("never", func(context.Context) (any, error) { return nil, nil }),
	}
	go func() {
		<-started
		cancel()
	}()
	_, _, err := RunWithMetrics(ctx, jobs, Config{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTimeout(t *testing.T) {
	jobs := []Job{job("slow", func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	})}
	start := time.Now()
	_, _, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 1, Timeout: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not cut the run short")
	}
}

func TestProgressReporting(t *testing.T) {
	var snaps []Progress
	jobs := []Job{
		{Name: "a", Units: 2, Run: func(context.Context) (any, error) { return nil, nil }},
		{Name: "b", Units: 3, Run: func(context.Context) (any, error) { return nil, nil }},
	}
	_, _, err := RunWithMetrics(context.Background(), jobs, Config{
		Workers:    1,
		OnProgress: func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d progress snapshots, want 2", len(snaps))
	}
	last := snaps[1]
	if last.Done != 2 || last.Total != 2 || last.Units != 5 || last.TotalUnits != 5 {
		t.Errorf("final snapshot = %+v", last)
	}
	for _, p := range snaps {
		if p.TotalUnits != 5 {
			t.Errorf("TotalUnits = %v, want 5", p.TotalUnits)
		}
	}
}

func TestProgressRate(t *testing.T) {
	if (Progress{}).Rate() != 0 {
		t.Error("zero-elapsed rate not 0")
	}
	p := Progress{Units: 10, Elapsed: 2 * time.Second}
	if got := p.Rate(); got != 5 {
		t.Errorf("Rate = %v, want 5", got)
	}
}

func TestEmptyJobs(t *testing.T) {
	results, _, err := RunWithMetrics(context.Background(), nil, Config{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: results=%v err=%v", results, err)
	}
}

func TestNilContext(t *testing.T) {
	results, _, err := RunWithMetrics(nil, []Job{job("x", func(context.Context) (any, error) { return 7, nil })}, Config{})
	if err != nil || results[0].(int) != 7 {
		t.Fatalf("nil ctx run: results=%v err=%v", results, err)
	}
}

func TestManyJobsFewWorkers(t *testing.T) {
	var peak, cur atomic.Int32
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, job(fmt.Sprint(i), func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}))
	}
	if _, _, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("concurrency peaked at %d, want <= 4", p)
	}
}

func TestRunWithMetrics(t *testing.T) {
	boom := errors.New("boom")
	// bad fails only once ok has started, so its cancel cannot skip ok.
	started := make(chan struct{})
	jobs := []Job{
		{Name: "ok", Units: 3, Run: func(context.Context) (any, error) {
			close(started)
			time.Sleep(2 * time.Millisecond)
			return 1, nil
		}},
		{Name: "bad", Units: 2, Run: func(context.Context) (any, error) {
			<-started
			return nil, boom
		}},
	}
	_, metrics, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(metrics))
	}
	ok, bad := metrics[0], metrics[1]
	if ok.Name != "ok" || ok.Units != 3 || ok.Failed || ok.Wall <= 0 {
		t.Errorf("ok metric = %+v", ok)
	}
	if ok.Rate() <= 0 {
		t.Errorf("ok rate = %v, want > 0", ok.Rate())
	}
	if bad.Name != "bad" || !bad.Failed {
		t.Errorf("bad metric = %+v", bad)
	}
	if (Metric{}).Rate() != 0 {
		t.Error("zero metric should have zero rate")
	}
}

func TestMetricsOnSkippedJobs(t *testing.T) {
	boom := errors.New("boom")
	var jobs []Job
	jobs = append(jobs, job("fail", func(context.Context) (any, error) { return nil, boom }))
	for i := 0; i < 20; i++ {
		jobs = append(jobs, job(fmt.Sprint(i), func(ctx context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, ctx.Err()
		}))
	}
	_, metrics, err := RunWithMetrics(context.Background(), jobs, Config{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	skipped := 0
	for _, m := range metrics[1:] {
		if m.Failed && m.Wall == 0 {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("cancellation skipped no jobs, expected Failed metrics with zero wall time")
	}
}
