package sim

import (
	"fmt"
	"strings"
	"testing"
)

// This file checks the production engine against a deliberately naive
// reference implementation: a sorted-slice queue whose correctness is
// obvious by inspection. Randomly generated event programs — At/After
// scheduling (with deliberate ties on time), Every tickers, cancels
// (before the first fire, inside the callback, and doubled), Stop,
// scheduling at Now() from outside any callback, horizons behind the
// clock, and the interrupt hook — run on both engines; the full dispatch trace
// (which event fired at which clock reading, plus queue depth and
// dispatch count at every observation point) must match byte for byte.
// A failing seed is logged so the exact program can be replayed.

// engineAPI is the surface both implementations expose to a program.
type engineAPI interface {
	Now() float64
	At(t float64, fn func())
	After(d float64, fn func())
	Every(period float64, fn func()) (cancel func())
	Stop()
	SetInterrupt(fn func() bool)
	Run()
	RunUntil(t float64)
	Pending() int
	Dispatched() int64
}

var _ engineAPI = (*Engine)(nil)
var _ engineAPI = (*refEngine)(nil)

// refEngine is the reference: events live in a slice kept sorted by
// (time, seq) with a stable insertion, and pop is "take element 0".
// Everything about it favours obviousness over speed.
type refEngine struct {
	now       float64
	seq       int64
	events    []refEvent
	stopped   bool
	interrupt func() bool
	dispatch  int64
}

type refEvent struct {
	time float64
	seq  int64
	fn   func()
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) Now() float64 { return e.now }

func (e *refEngine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := refEvent{time: t, seq: e.seq, fn: fn}
	// Insert before the first strictly-later event: equal times keep
	// scheduling order because the new event has the largest seq.
	i := len(e.events)
	for i > 0 {
		p := e.events[i-1]
		if p.time < ev.time || (p.time == ev.time && p.seq < ev.seq) {
			break
		}
		i--
	}
	e.events = append(e.events, refEvent{})
	copy(e.events[i+1:], e.events[i:])
	e.events[i] = ev
}

func (e *refEngine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// refTicker mirrors the production ticker's cancel semantics: cancel is
// effective immediately, including from inside fn (no re-arm), and an
// already-queued tick fires as a no-op.
type refTicker struct {
	eng     *refEngine
	period  float64
	fn      func()
	stopped bool
}

func (t *refTicker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped {
		return
	}
	t.eng.After(t.period, t.tick)
}

func (e *refEngine) Every(period float64, fn func()) (cancel func()) {
	t := &refTicker{eng: e, period: period, fn: fn}
	e.After(period, t.tick)
	return func() { t.stopped = true }
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) SetInterrupt(fn func() bool) { e.interrupt = fn }

func (e *refEngine) Pending() int { return len(e.events) }

func (e *refEngine) Dispatched() int64 { return e.dispatch }

// interrupted matches the production engine's polling contract: the
// hook is consulted every interruptStride dispatches, not on each one.
func (e *refEngine) interrupted() bool {
	e.dispatch++
	return e.dispatch%interruptStride == 0 && e.interrupt != nil && e.interrupt()
}

func (e *refEngine) Run() {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.events[0]
		e.events = e.events[1:]
		e.now = ev.time
		ev.fn()
		if e.interrupted() {
			break
		}
	}
}

func (e *refEngine) RunUntil(t float64) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].time > t {
			break
		}
		ev := e.events[0]
		e.events = e.events[1:]
		e.now = ev.time
		ev.fn()
		if e.interrupted() {
			return
		}
	}
	if e.stopped {
		return
	}
	if e.now < t {
		e.now = t
	}
}

// script interprets one randomly generated event program against an
// engine, appending every observable (fires, clock readings, queue
// depths, dispatch counts) to a trace. Identical engine behaviour means
// identical RNG draw order, which means identical traces; the first
// divergence in firing order snowballs into a trace mismatch.
type script struct {
	rnd    *Rand
	trace  strings.Builder
	nextID int
	budget int // scheduling decisions left; bounds the program
	lives  []func()
}

func (s *script) id() int { s.nextID++; return s.nextID }

// fire records one event dispatch and then lets the program react —
// events scheduling further events is where ordering bugs live.
func (s *script) fire(e engineAPI, id int) {
	fmt.Fprintf(&s.trace, "%d@%g;", id, e.Now())
	s.act(e)
}

// act makes one random scheduling decision from inside a callback.
func (s *script) act(e engineAPI) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	switch s.rnd.Intn(8) {
	case 0, 1: // At, on a coarse grid so ties are common
		id := s.id()
		t := e.Now() + float64(s.rnd.Intn(6))
		e.At(t, func() { s.fire(e, id) })
	case 2, 3: // After, including zero delay (fires "now", after peers)
		id := s.id()
		e.After(float64(s.rnd.Intn(5)), func() { s.fire(e, id) })
	case 4: // start a ticker; keep its cancel for later
		id := s.id()
		cancel := e.Every(1+float64(s.rnd.Intn(4)), func() { s.fire(e, id) })
		s.lives = append(s.lives, cancel)
	case 5: // cancel a live ticker, sometimes twice (double-cancel)
		if len(s.lives) > 0 {
			i := s.rnd.Intn(len(s.lives))
			s.lives[i]()
			if s.rnd.Bool(0.3) {
				s.lives[i]()
			}
		}
	case 6: // halt the current run segment mid-flight
		if s.rnd.Bool(0.2) {
			e.Stop()
		}
	case 7: // nothing
	}
}

// runProgram executes the program for the given seed and returns its
// trace.
func runProgram(e engineAPI, seed uint64) string {
	s := &script{rnd: NewRand(seed), budget: 120}
	// Seed the queue: a burst of events on a coarse time grid (ties
	// guaranteed) plus a couple of tickers, one cancelled before its
	// first fire.
	n := 4 + s.rnd.Intn(8)
	for i := 0; i < n; i++ {
		id := s.id()
		e.At(float64(s.rnd.Intn(8)), func() { s.fire(e, id) })
	}
	for i := 0; i < 2; i++ {
		id := s.id()
		cancel := e.Every(1+float64(s.rnd.Intn(4)), func() { s.fire(e, id) })
		s.lives = append(s.lives, cancel)
	}
	if s.rnd.Bool(0.5) {
		s.lives[0]() // cancel before first fire: the queued tick no-ops
	}
	// Drive the program in segments, observing the clock and queue
	// between them; a Stop inside a segment leaves the remainder for
	// the next RunUntil, which both engines must agree on.
	for seg := 0; seg < 5; seg++ {
		horizon := e.Now() + float64(1+s.rnd.Intn(25))
		e.RunUntil(horizon)
		fmt.Fprintf(&s.trace, "|%g:now=%g,pend=%d,disp=%d;",
			horizon, e.Now(), e.Pending(), e.Dispatched())
		if len(s.lives) > 0 && s.rnd.Bool(0.4) {
			s.lives[s.rnd.Intn(len(s.lives))]()
		}
		// Schedule at the current instant from outside any callback. The
		// segment ended at its horizon, or at a Stop that may have left
		// events due at this same instant unfired — which were scheduled
		// first and must still fire first.
		if s.rnd.Bool(0.5) {
			for n := 1 + s.rnd.Intn(3); n > 0; n-- {
				id := s.id()
				if s.rnd.Bool(0.5) {
					e.At(e.Now(), func() { s.fire(e, id) })
				} else {
					e.After(0, func() { s.fire(e, id) })
				}
			}
			// A horizon behind the clock: nothing is due, whatever is
			// queued for now, and the clock stays.
			if s.rnd.Bool(0.5) {
				e.RunUntil(e.Now() - float64(1+s.rnd.Intn(3)))
				fmt.Fprintf(&s.trace, "|back:now=%g,pend=%d,disp=%d;",
					e.Now(), e.Pending(), e.Dispatched())
			}
		}
	}
	// Cancel everything recurring, stop the program making new ones,
	// and drain. (Without both, a ticker started during the drain
	// itself would re-arm forever and Run would never return.)
	s.budget = 0
	for _, cancel := range s.lives {
		cancel()
	}
	e.Run()
	fmt.Fprintf(&s.trace, "|end:now=%g,pend=%d,disp=%d", e.Now(), e.Pending(), e.Dispatched())
	return s.trace.String()
}

func TestEngineMatchesReference(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	const base = uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		seed := base + uint64(i)*0xbf58476d1ce4e5b9
		got := runProgram(NewEngine(), seed)
		want := runProgram(newRefEngine(), seed)
		if got != want {
			t.Fatalf("seed %#x: engine trace diverges from reference\nengine:    %s\nreference: %s",
				seed, got, want)
		}
	}
}

// TestEngineMatchesReferenceInterrupt exercises the interrupt hook,
// which both implementations poll every interruptStride dispatches: a
// program big enough to cross several stride boundaries, with a hook
// that trips partway through, must leave both engines at the same
// clock, dispatch count, and queue depth.
func TestEngineMatchesReferenceInterrupt(t *testing.T) {
	run := func(e engineAPI) string {
		var trace strings.Builder
		fired := 0
		var chain func()
		chain = func() {
			fired++
			if fired < 3*interruptStride {
				e.After(1, chain)
			}
		}
		// A self-extending chain plus a standing burst, so the queue is
		// never empty when the hook trips.
		e.After(1, chain)
		for i := 0; i < 100; i++ {
			e.At(float64(4*interruptStride+i), func() {})
		}
		e.SetInterrupt(func() bool { return e.Dispatched() >= interruptStride })
		e.Run()
		fmt.Fprintf(&trace, "stop:now=%g,pend=%d,disp=%d;", e.Now(), e.Pending(), e.Dispatched())
		// Clearing the hook and resuming drains the rest.
		e.SetInterrupt(nil)
		e.Run()
		fmt.Fprintf(&trace, "end:now=%g,pend=%d,disp=%d", e.Now(), e.Pending(), e.Dispatched())
		return trace.String()
	}
	got := run(NewEngine())
	want := run(newRefEngine())
	if got != want {
		t.Fatalf("interrupt trace diverges\nengine:    %s\nreference: %s", got, want)
	}
}

// TestEngineMatchesReferenceZeroDelayInterrupt runs a chain of
// zero-delay events — each link schedules the next for the instant it
// fires at — that is longer than two interrupt strides, starts beside
// events already queued for the same instant, and twice bursts more
// same-instant events than the production engine's lane first holds.
// The hook trips inside the chain, twice; the halted engine is scheduled
// on from outside, driven to a horizon behind its clock, and resumed.
// Every side event records how far the chain had got when it fired, so
// the trace pins the interleaving, not just the totals.
func TestEngineMatchesReferenceZeroDelayInterrupt(t *testing.T) {
	const chain = 2*interruptStride + 100
	run := func(e engineAPI) string {
		var trace strings.Builder
		observe := func(what string) {
			fmt.Fprintf(&trace, "|%s:now=%g,pend=%d,disp=%d;", what, e.Now(), e.Pending(), e.Dispatched())
		}
		links := 0
		side := func(id int) func() {
			return func() { fmt.Fprintf(&trace, "s%d@%g/%d;", id, e.Now(), links) }
		}
		var link func()
		link = func() {
			links++
			if links == chain {
				return
			}
			e.After(0, link)
			// Bursts wider than laneMinCap, begun with the ring's head
			// off slot zero, so it grows while wrapped.
			switch links {
			case 5:
				for i := 0; i < 3*laneMinCap; i++ {
					e.After(0, side(100+i))
				}
			case interruptStride - 50:
				for i := 0; i < 9*laneMinCap; i++ {
					e.At(e.Now()-1, side(1000+i)) // the past is now
				}
			}
		}
		e.At(5, link)
		// Queued for the chain's instant before it began: they fire
		// after the first link, before the second.
		e.At(5, side(1))
		e.At(5, side(2))
		e.At(9, side(3))
		e.SetInterrupt(func() bool { return e.Dispatched() >= interruptStride })
		e.Run()
		observe("trip")
		e.At(e.Now(), side(4))
		e.After(0, side(5))
		e.RunUntil(e.Now() - 1)
		observe("back")
		// Resumed with the lane loaded, tripped again before it empties.
		e.SetInterrupt(func() bool { return e.Dispatched() >= 2*interruptStride })
		e.Run()
		observe("trip2")
		e.SetInterrupt(nil)
		e.RunUntil(7)
		observe("seven")
		e.Run()
		observe("end")
		return trace.String()
	}
	got := run(NewEngine())
	want := run(newRefEngine())
	if got != want {
		t.Fatalf("zero-delay interrupt trace diverges\nengine:    %s\nreference: %s", got, want)
	}
	// Tripped at the first poll, mid-chain, with the second burst queued.
	if trip := fmt.Sprintf("|trip:now=5,pend=%d,disp=%d;", 1+9*laneMinCap+1, interruptStride); !strings.Contains(got, trip) {
		t.Errorf("trace lacks %q: the hook did not trip inside the chain\n%s", trip, got)
	}
}
