package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.At(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	e := NewEngine()
	var fired float64 = -1
	e.At(10, func() {
		e.At(3, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 10 {
		t.Errorf("past event fired at %v, want 10", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, tm := range []float64{5, 15, 25} {
		tm := tm
		e.At(tm, func() { fired = append(fired, tm) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Errorf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || e.Now() != 25 {
		t.Errorf("after Run: fired=%v now=%v", fired, e.Now())
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Every(10, func() { times = append(times, e.Now()) })
	e.RunUntil(35)
	if len(times) != 3 || times[0] != 10 || times[1] != 20 || times[2] != 30 {
		t.Errorf("times = %v, want [10 20 30]", times)
	}
	// The t=40 tick is already scheduled past the horizon.
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want the next tick queued", e.Pending())
	}
	if e.Now() != 35 {
		t.Errorf("Now = %v, want 35", e.Now())
	}
	e.RunUntil(40)
	if len(times) != 4 || times[3] != 40 {
		t.Errorf("times = %v, want a 4th fire at 40", times)
	}
}

func TestEveryCancelBeforeFirstFire(t *testing.T) {
	e := NewEngine()
	fires := 0
	cancel := e.Every(10, func() { fires++ })
	cancel()
	e.RunUntil(100)
	if fires != 0 {
		t.Errorf("cancelled ticker fired %d times", fires)
	}
	// The already-scheduled first tick fires as a no-op without
	// rescheduling, so the queue drains and a bare Run returns.
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after the dead tick, want 0", e.Pending())
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want the full horizon 100", e.Now())
	}
	e.Run() // must return immediately: nothing left to do
}

func TestEveryCancelInsideCallback(t *testing.T) {
	e := NewEngine()
	fires := 0
	var cancel func()
	cancel = e.Every(10, func() {
		fires++
		if fires == 3 {
			cancel()
		}
	})
	e.RunUntil(1000)
	if fires != 3 {
		t.Errorf("fired %d times, want exactly 3 (cancelled inside the 3rd)", fires)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want a drained queue", e.Pending())
	}
}

func TestEveryCancelInsideCallbackDropsRearm(t *testing.T) {
	// Cancelling from inside the callback must drop the pending re-arm
	// immediately: right after the cancelling tick fires, the queue
	// holds no dead ticker event (it used to re-arm once and fire a
	// no-op one period later).
	e := NewEngine()
	fires := 0
	var cancel func()
	cancel = e.Every(10, func() {
		fires++
		if fires == 3 {
			cancel()
		}
	})
	e.RunUntil(30) // exactly the 3rd fire
	if fires != 3 {
		t.Fatalf("fired %d times, want 3", fires)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d immediately after cancel-inside-callback, want 0 (no re-arm)", e.Pending())
	}
	cancel() // double-cancel after the ticker is gone must be harmless
	e.RunUntil(100)
	if fires != 3 {
		t.Errorf("fired %d times after double-cancel, want still 3", fires)
	}
}

func TestEveryCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	fires := 0
	cancel := e.Every(5, func() { fires++ })
	e.RunUntil(12)
	cancel()
	cancel() // double-cancel must be harmless
	e.RunUntil(100)
	if fires != 2 {
		t.Errorf("fired %d times, want 2 (at 5 and 10)", fires)
	}
}

func TestTwoTickersCancelIndependently(t *testing.T) {
	e := NewEngine()
	var a, b int
	cancelA := e.Every(10, func() { a++ })
	e.Every(10, func() { b++ })
	e.RunUntil(25)
	cancelA()
	e.RunUntil(55)
	if a != 2 {
		t.Errorf("cancelled ticker fired %d times, want 2", a)
	}
	if b != 5 {
		t.Errorf("surviving ticker fired %d times, want 5", b)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 0; i < 10; i++ {
		e.At(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Errorf("after resume count = %d", count)
	}
}

func TestStopDuringRunUntil(t *testing.T) {
	// Stop from inside an event halts RunUntil immediately: later events
	// stay queued, and the clock stays at the stopping event instead of
	// advancing to the horizon, so a paused engine can resume where it
	// left off.
	e := NewEngine()
	var fired []float64
	for _, tm := range []float64{5, 10, 15, 20} {
		tm := tm
		e.At(tm, func() {
			fired = append(fired, tm)
			if tm == 10 {
				e.Stop()
			}
		})
	}
	e.RunUntil(100)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10 (clock must not jump to the horizon)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 retained events", e.Pending())
	}
	// A fresh RunUntil resumes exactly where the stop left off.
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Errorf("after resume: fired=%v now=%v", fired, e.Now())
	}
}

func TestPastSchedulingInsideRunUntil(t *testing.T) {
	// An event that schedules into the past during RunUntil fires at the
	// current time, within the same RunUntil pass.
	e := NewEngine()
	var fired float64 = -1
	e.At(10, func() {
		e.At(3, func() { fired = e.Now() })
	})
	e.RunUntil(20)
	if fired != 10 {
		t.Errorf("past event fired at %v, want 10", fired)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
}

func TestPastSchedulingAtHorizon(t *testing.T) {
	// Scheduling into the past from an event exactly at the horizon
	// still fires before RunUntil returns: the clamped event lands at
	// the horizon, not beyond it.
	e := NewEngine()
	var fired bool
	e.At(20, func() {
		e.At(1, func() { fired = true })
	})
	e.RunUntil(20)
	if !fired {
		t.Error("event scheduled into the past at the horizon did not fire")
	}
}

func TestPendingAfterStop(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		i := i
		e.At(float64(i), func() {
			if i == 1 {
				e.Stop()
			}
		})
	}
	e.Run()
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after stop, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after resume, want 0", e.Pending())
	}
}

func TestInterruptHaltsRun(t *testing.T) {
	// The interrupt hook is polled every few thousand events; a run
	// whose hook trips must halt long before draining a large queue,
	// with the remaining events retained.
	e := NewEngine()
	stop := false
	e.SetInterrupt(func() bool { return stop })
	const n = 3 * interruptStride
	count := 0
	for i := 0; i < n; i++ {
		e.At(float64(i), func() {
			count++
			if count == interruptStride/2 {
				stop = true
			}
		})
	}
	e.Run()
	if count >= n {
		t.Fatal("interrupt did not halt the run")
	}
	if e.Pending() != n-count {
		t.Errorf("Pending = %d, want %d", e.Pending(), n-count)
	}
	// Clearing the condition lets the run resume and finish.
	stop = false
	e.Run()
	if count != n || e.Pending() != 0 {
		t.Errorf("after resume: count=%d pending=%d", count, e.Pending())
	}
}

func TestInterruptHaltsRunUntil(t *testing.T) {
	e := NewEngine()
	stop := false
	e.SetInterrupt(func() bool { return stop })
	const n = 2 * interruptStride
	count := 0
	for i := 0; i < n; i++ {
		e.At(float64(i), func() {
			count++
			if count == 10 {
				stop = true
			}
		})
	}
	e.RunUntil(float64(n))
	if count >= n {
		t.Fatal("interrupt did not halt RunUntil")
	}
	if e.Now() >= float64(n) {
		t.Errorf("Now = %v advanced to the horizon despite the interrupt", e.Now())
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced stuck generator")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Exp(5) sample mean = %v", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(13)
	var sum, sumSq float64
	n := 200000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev = %v", math.Sqrt(variance))
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRand(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

func TestSplitIndependent(t *testing.T) {
	r := NewRand(23)
	a := r.Split()
	b := r.Split()
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("split streams identical")
	}
}

func TestZipfRanksInRange(t *testing.T) {
	z := NewZipf(100, 1.2)
	r := NewRand(3)
	f := func(_ uint8) bool {
		k := z.Rank(r)
		return k >= 0 && k < 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.4)
	r := NewRand(5)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("Zipf not skewed: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Rank 0 should carry a large share under heavy skew.
	if frac := float64(counts[0]) / float64(n); frac < 0.05 {
		t.Errorf("rank-0 share = %v, want noticeable mass", frac)
	}
}

// TestZipfProbSumsToOne reads each rank's probability off the
// cumulative table: it is the Zipf(θ) mass of the rank, and the last
// entry, which NewZipf pins to 1, is where the masses sum to.
func TestZipfProbSumsToOne(t *testing.T) {
	const n, theta = 50, 0.9
	z := NewZipf(n, theta)
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), theta)
	}
	var prev float64
	for i, c := range z.cum {
		if want := 1 / math.Pow(float64(i+1), theta) / h; math.Abs(c-prev-want) > 1e-9 {
			t.Errorf("rank %d: probability %v, want %v", i, c-prev, want)
		}
		prev = c
	}
	if prev != 1 {
		t.Errorf("probabilities sum to %v", prev)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) did not panic")
		}
	}()
	NewZipf(0, 1)
}
