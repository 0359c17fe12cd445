// Package sim provides the discrete-event simulation core used to drive
// the disk, driver, file system and workload models: an event queue with
// a simulated clock, and a deterministic pseudo-random number generator
// with the variate generators the workloads need.
//
// All simulated times are float64 milliseconds, matching the units of
// the paper's measurements.
//
// The event queue is engineered for the hot path: an inlined 4-ary
// min-heap of 32-byte entries over a reusable backing slice (no
// container/heap, so no per-Push boxing of events into interface
// values), a FIFO lane beside it for events due at the current instant
// (most events of a cached file system: they never enter the heap), and
// a Caller-based scheduling variant (AtCall/AfterCall) that lets
// long-lived request records schedule their own completion without
// allocating a closure per event. Every event is one Caller: a func()
// is stored as a funcCall, which is pointer-shaped and so boxes into
// the interface without allocating. Steady-state scheduling performs
// zero allocations.
//
// Zipf draws a rank in O(1) from one Uint64: the top bits of the draw
// index a guide table that holds, per cell, the first rank the cell can
// return, and a short upward scan of the cumulative table from there
// gives exactly the rank a binary search would.
package sim

// Caller is a pre-allocated event callback: scheduling a Caller with
// AtCall/AfterCall stores only its interface value in the queue, so a
// long-lived object (a pooled request record, a ticker) can schedule
// events with no per-event allocation, where an equivalent closure
// would allocate on every schedule.
type Caller interface {
	// Call runs the event.
	Call()
}

// funcCall adapts a func() to Caller. A func value is pointer-shaped,
// so converting one to a Caller stores it in the interface word itself
// and allocates nothing.
type funcCall func()

// Call implements Caller.
func (f funcCall) Call() { f() }

// event is one heap entry, 32 bytes. Events with equal times fire in
// scheduling (seq) order, which is what makes simulations deterministic
// and byte-for-bit reproducible.
type event struct {
	time float64
	seq  int64
	call Caller
}

// Engine is a discrete-event simulator. Events scheduled at the same
// time fire in scheduling order.
//
// Events live in one of two places. An event due later than now goes on
// the heap. An event due now (zero delay, or a time in the past) goes on
// the lane, a FIFO that is drained before the clock moves. Firing "the
// heap entries due now, then the lane in order, then the next heap
// entry" is exactly (time, seq) order: every lane entry is due at now;
// a heap entry due at T was scheduled while now < T (at now == T it
// would have gone to the lane), so it was scheduled before — has a
// lower seq than — every lane entry scheduled while now == T; and the
// clock only moves once the lane is empty. Lane entries therefore need
// neither a time nor a seq.
type Engine struct {
	now       float64
	seq       int64
	heap      []event  // 4-ary min-heap ordered by (time, seq); every time ≥ now
	lane      []Caller // ring of the events due at now, oldest at laneHead; len is a power of two
	laneHead  int
	laneLen   int
	stopped   bool
	interrupt func() bool
	dispatch  int64
}

// laneMinCap is the lane's first capacity; it doubles when full.
const laneMinCap = 16

// interruptStride is how many events fire between interrupt polls: large
// enough that polling cost is negligible, small enough that a cancelled
// run stops within a fraction of a simulated day.
const interruptStride = 4096

// heapArity is the fan-out of the event heap. A 4-ary heap does ~half
// the levels of a binary heap on sift-down (the pop-heavy operation
// here), and keeps siblings in adjacent cache lines.
const heapArity = 4

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// push inserts ev into the heap, sifting it up to its position. The
// backing slice is reused across pops, so steady-state pushes do not
// allocate.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for the GC
	h = h[:n]
	e.heap = h
	// Sift the relocated root down.
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// less orders events by time, breaking ties by scheduling order.
func less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// growLane doubles the full ring, unwrapping it. It is kept out of
// line so that schedule, which every event passes through, stays the
// size it was before there was a lane.
//
//go:noinline
func (e *Engine) growLane() {
	grown := make([]Caller, max(laneMinCap, 2*len(e.lane)))
	n := copy(grown, e.lane[e.laneHead:])
	copy(grown[n:], e.lane[:e.laneHead])
	e.lane, e.laneHead = grown, 0
}

// pushLane appends c to the lane.
func (e *Engine) pushLane(c Caller) {
	if e.laneLen == len(e.lane) {
		e.growLane()
	}
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = c
	e.laneLen++
}

// popLane removes and returns the oldest lane entry.
func (e *Engine) popLane() Caller {
	c := e.lane[e.laneHead]
	e.lane[e.laneHead] = nil // release the callback for the GC
	e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
	e.laneLen--
	return c
}

// schedule enqueues the event: on the lane when it is due now (a time
// in the past is clamped to the present), stamped on the heap otherwise.
func (e *Engine) schedule(t float64, c Caller) {
	if t <= e.now {
		e.pushLane(c)
		return
	}
	e.seq++
	e.push(event{time: t, seq: e.seq, call: c})
}

// At schedules fn to run at absolute time t. Scheduling in the past runs
// the event at the current time.
func (e *Engine) At(t float64, fn func()) { e.schedule(t, funcCall(fn)) }

// After schedules fn to run d milliseconds from now. The conversion
// rounds d, so a caller's product is never fused into this addition.
func (e *Engine) After(d float64, fn func()) { e.schedule(e.now+float64(d), funcCall(fn)) }

// AtCall schedules c.Call to run at absolute time t. Like At it
// allocates nothing in steady state; a caller holding a long-lived
// record (a pooled request, a daemon) schedules the record itself and
// so needs no closure either.
func (e *Engine) AtCall(t float64, c Caller) { e.schedule(t, c) }

// AfterCall schedules c.Call to run d milliseconds from now.
func (e *Engine) AfterCall(d float64, c Caller) { e.schedule(e.now+d, c) }

// Every schedules fn to run every period milliseconds, first at
// now+period, until the returned cancel function is called. Periodic
// observers (the telemetry sampler, daemons in tests) use it; the
// recurring event keeps the queue non-empty, so drive the engine with
// RunUntil horizons rather than a bare Run.
//
// Cancel is effective immediately, wherever it is called from: a ticker
// cancelled from inside its own callback does not re-arm, so the queue
// holds no dead tick afterwards.
func (e *Engine) Every(period float64, fn func()) (cancel func()) {
	t := &ticker{eng: e, period: period, fn: fn}
	e.AfterCall(period, t)
	return t.stop
}

// ticker is the reusable event record behind Every: one allocation per
// ticker, zero per tick.
type ticker struct {
	eng     *Engine
	period  float64
	fn      func()
	stopped bool
}

// Call implements Caller: run the callback, then re-arm — unless the
// ticker was cancelled, including by the callback itself (the re-check
// after fn is what drops the pending re-arm on cancel-inside-callback).
func (t *ticker) Call() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped {
		return
	}
	t.eng.AfterCall(t.period, t)
}

func (t *ticker) stop() { t.stopped = true }

// Dispatched returns the number of events fired since the engine was
// created — the per-job event counter surfaced by harness telemetry.
func (e *Engine) Dispatched() int64 { return e.dispatch }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + e.laneLen }

// SetInterrupt installs fn, polled periodically during Run and RunUntil
// (every few thousand events). When fn returns true the running loop
// halts as if Stop had been called: the clock stays at the last fired
// event and queued events are retained, so the caller can observe a
// cancelled simulation's partial state. A nil fn removes the hook.
func (e *Engine) SetInterrupt(fn func() bool) { e.interrupt = fn }

// interrupted polls the interrupt hook at interruptStride boundaries.
func (e *Engine) interrupted() bool {
	e.dispatch++
	return e.dispatch%interruptStride == 0 && e.interrupt != nil && e.interrupt()
}

// drainNow fires everything due at the current instant: heap entries
// first (they were scheduled before the clock got here, so they precede
// the whole lane), then the lane in order, until the lane is empty or
// Stop is called. It reports false if the interrupt hook fired.
func (e *Engine) drainNow() bool {
	for e.laneLen > 0 && !e.stopped {
		if len(e.heap) > 0 && e.heap[0].time <= e.now {
			e.pop().call.Call()
		} else {
			e.popLane().Call()
		}
		if e.interrupted() {
			return false
		}
	}
	return true
}

// Run executes events until the queue is empty, Stop is called, or the
// interrupt hook fires.
//
// The loop (here and in RunUntil) is the heap-only loop plus one integer
// compare per event: the lane is drained by a call made only when it
// holds something — never, on a stack with no zero-delay events. (A
// prototype that routed both sources through one "next event" helper
// measured 6 % on such a run.)
func (e *Engine) Run() {
	e.stopped = false
	if !e.drainNow() {
		return
	}
	for len(e.heap) > 0 && !e.stopped {
		ev := e.pop()
		e.now = ev.time
		ev.call.Call()
		if e.interrupted() || (e.laneLen > 0 && !e.drainNow()) {
			break
		}
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled beyond t remain queued — all of them when t is
// behind the clock, where nothing is due. A Stop or interrupt leaves the
// clock at the last fired event rather than advancing it to t.
func (e *Engine) RunUntil(t float64) {
	e.stopped = false
	if e.now > t || !e.drainNow() {
		return
	}
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].time > t {
			break
		}
		ev := e.pop()
		e.now = ev.time
		ev.call.Call()
		if e.interrupted() || (e.laneLen > 0 && !e.drainNow()) {
			return
		}
	}
	if e.stopped {
		return
	}
	// Not stopped, so drainNow ran the lane empty: the clock may move.
	if e.now < t {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes. Queued
// events are retained.
func (e *Engine) Stop() { e.stopped = true }
