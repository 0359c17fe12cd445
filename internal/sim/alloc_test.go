package sim

import (
	"strconv"
	"testing"
)

// Allocation regression tests: the whole point of the inlined heap and
// the Caller variant is that steady-state scheduling stays off the
// garbage collector's books. These assertions keep container/heap-style
// interface boxing from silently returning.

// warmEngine returns an engine whose heap backing array has already
// grown past what the test will push, so append never reallocates.
func warmEngine() *Engine {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.After(1, func() {})
	}
	e.Run()
	return e
}

func TestAfterSteadyStateZeroAllocs(t *testing.T) {
	e := warmEngine()
	fn := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.RunUntil(e.Now() + 2)
	}); n != 0 {
		t.Errorf("steady-state After: %v allocs per event, want 0", n)
	}
}

func TestAtSteadyStateZeroAllocs(t *testing.T) {
	e := warmEngine()
	fn := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.RunUntil(e.Now() + 2)
	}); n != 0 {
		t.Errorf("steady-state At: %v allocs per event, want 0", n)
	}
}

// callCounter is a minimal long-lived Caller, standing in for a pooled
// request record.
type callCounter struct{ n int }

func (c *callCounter) Call() { c.n++ }

func TestAfterCallSteadyStateZeroAllocs(t *testing.T) {
	e := warmEngine()
	c := &callCounter{}
	if n := testing.AllocsPerRun(1000, func() {
		e.AfterCall(1, c)
		e.RunUntil(e.Now() + 2)
	}); n != 0 {
		t.Errorf("steady-state AfterCall: %v allocs per event, want 0", n)
	}
	if c.n == 0 {
		t.Fatal("Caller never fired")
	}
}

func TestEverySteadyStateZeroAllocs(t *testing.T) {
	e := warmEngine()
	ticks := 0
	cancel := e.Every(1, func() { ticks++ })
	defer cancel()
	e.RunUntil(e.Now() + 10) // past the first re-arm
	if n := testing.AllocsPerRun(1000, func() {
		e.RunUntil(e.Now() + 1)
	}); n != 0 {
		t.Errorf("steady-state Every tick: %v allocs per tick, want 0", n)
	}
	if ticks < 10 {
		t.Fatalf("ticker only fired %d times", ticks)
	}
}

// Zero-delay events take the lane, not the heap; its ring is reused
// like the heap's backing slice.
func TestZeroDelaySteadyStateZeroAllocs(t *testing.T) {
	e := warmEngine()
	c := &callCounter{}
	fn := func() {}
	burst := func() {
		for i := 0; i < 2*laneMinCap; i++ {
			e.AfterCall(0, c)
			e.At(e.Now(), fn)
		}
		e.RunUntil(e.Now())
	}
	burst() // grow the ring once
	if n := testing.AllocsPerRun(1000, burst); n != 0 {
		t.Errorf("steady-state zero-delay burst: %v allocs, want 0", n)
	}
	if c.n == 0 || e.Pending() != 0 {
		t.Fatalf("fired %d, %d still pending", c.n, e.Pending())
	}
}

// chainLink is a zero-delay event that schedules itself again: the cache
// hit's completion, which is most of what a cached file system fires.
type chainLink struct {
	e    *Engine
	left int
}

func (c *chainLink) Call() {
	if c.left--; c.left > 0 {
		c.e.AfterCall(0, c)
	}
}

// BenchmarkZeroDelayChain fires a chain of zero-delay events while a
// standing population of future events (disk completions, think times,
// daemons) waits on the heap.
func BenchmarkZeroDelayChain(b *testing.B) {
	for _, pending := range []int{64, 4096} {
		b.Run(strconv.Itoa(pending), func(b *testing.B) {
			e := NewEngine()
			rnd := NewRand(1)
			for i := 0; i < pending; i++ {
				e.After(1000+rnd.Exp(5), func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.AfterCall(0, &chainLink{e: e, left: b.N})
			e.RunUntil(1)
			if e.Pending() != pending {
				b.Fatalf("%d pending, want the %d future events", e.Pending(), pending)
			}
		})
	}
}

func BenchmarkAfterRunUntil(b *testing.B) {
	e := warmEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.RunUntil(e.Now() + 2)
	}
}

// BenchmarkHeapChurn measures raw queue throughput: a standing
// population of events each rescheduling themselves, the shape the
// driver's phase chains and workload arrivals produce.
func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine()
	const population = 1024
	rnd := NewRand(1)
	var self func()
	n := 0
	self = func() {
		n++
		if n < b.N {
			e.After(rnd.Exp(5), self)
		}
	}
	for i := 0; i < population; i++ {
		e.After(rnd.Exp(5), self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
