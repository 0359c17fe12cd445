package server

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits every request; outcomes feed the trip window.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests; all
	// probes succeeding closes the breaker, any probe failing reopens it.
	BreakerHalfOpen
)

// String names the state for gauges and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes the per-backend circuit breaker.
type BreakerConfig struct {
	// Window is the rolling sample window, in completed requests, the
	// trip rates are computed over; zero selects 64.
	Window int
	// MinSamples is how many outcomes the window must hold before the
	// breaker may trip; zero selects Window/2.
	MinSamples int
	// ErrorRate and MissRate are the trip thresholds: the breaker opens
	// when the windowed fraction of failed requests reaches ErrorRate,
	// or the fraction of deadline-missing requests reaches MissRate.
	// Zeros select 0.5 each; a negative value disables that trigger.
	ErrorRate float64
	MissRate  float64
	// CooldownMS is how long an open breaker rejects before probing,
	// in simulated milliseconds; zero selects 5000.
	CooldownMS float64
	// HalfOpenProbes is how many probe requests a half-open breaker
	// admits; zero selects 5.
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
	}
	if c.ErrorRate == 0 {
		c.ErrorRate = 0.5
	}
	if c.MissRate == 0 {
		c.MissRate = 0.5
	}
	if c.CooldownMS <= 0 {
		c.CooldownMS = 5000
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 5
	}
	return c
}

// BreakerCounts are the breaker's lifetime transition counters.
type BreakerCounts struct {
	// Opened counts closed→open trips and half-open→open reopenings;
	// HalfOpened counts open→half-open cooldown expiries; Closed counts
	// half-open→closed recoveries; Rejected counts requests refused
	// while open (or half-open with all probe slots taken).
	Opened     int64
	HalfOpened int64
	Closed     int64
	Rejected   int64
}

// outcome bits of one windowed sample.
const (
	outcomeErr  = 1 << 0
	outcomeMiss = 1 << 1
)

// Breaker is a closed/open/half-open circuit breaker driven entirely by
// simulated time: the caller passes the engine's now to Allow and
// Record, so two runs observing the same request outcomes at the same
// simulated times transition identically. It is not safe for concurrent
// use; like the rest of the stack it lives on one engine goroutine.
type Breaker struct {
	cfg   BreakerConfig
	state BreakerState

	// window is a ring of outcome bitmasks; errs/misses track the
	// current window sums incrementally.
	window []uint8
	pos    int
	filled int
	errs   int
	misses int

	// reopenAt is when an open breaker may probe again.
	reopenAt float64
	// probes counts half-open probe admissions in flight or completed;
	// probeOK counts probe successes.
	probes  int
	probeOK int

	counts BreakerCounts
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]uint8, cfg.Window)}
}

// State returns the breaker's position as of now, applying a pending
// open→half-open cooldown expiry first. It is a transition, not a read:
// the expiry it applies is counted and resets the probe budget, so no
// observer may call it — the server_breaker_state gauge reads the field.
func (b *Breaker) State(now float64) BreakerState {
	if b.state == BreakerOpen && now >= b.reopenAt {
		b.state = BreakerHalfOpen
		b.probes, b.probeOK = 0, 0
		b.counts.HalfOpened++
	}
	return b.state
}

// Counts returns the lifetime transition counters.
func (b *Breaker) Counts() BreakerCounts { return b.counts }

// Allow reports whether a request arriving at simulated time now may
// proceed to the backend. probe is true when the admission is a
// half-open probe, whose outcome the caller must mark in Record.
func (b *Breaker) Allow(now float64) (ok, probe bool) {
	switch b.State(now) {
	case BreakerClosed:
		return true, false
	case BreakerHalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			return true, true
		}
	}
	b.counts.Rejected++
	return false, false
}

// ProbeAborted returns a half-open probe slot whose request was
// rejected downstream of Allow (rate limit, queue overflow) before any
// backend attempt: the admission produced no evidence about the
// backend, so the slot must be reusable or the breaker would idle in
// half-open forever waiting on outcomes that can never arrive.
func (b *Breaker) ProbeAborted() {
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// Record feeds one completed request's outcome into the breaker at
// simulated time now: failed marks a backend error, missed a deadline
// miss, probe an admission Allow marked as a half-open probe. Closed,
// the outcome joins the rolling window and may trip the breaker open;
// half-open, a probe failure reopens it and the final probe success
// closes it. Outcomes of requests admitted before a transition (probe
// false while not closed) are discarded — the window restarts clean.
func (b *Breaker) Record(now float64, failed, missed, probe bool) {
	switch b.State(now) {
	case BreakerClosed:
		b.push(failed, missed)
		if b.filled >= b.cfg.MinSamples && (b.rateTripped(b.errs, b.cfg.ErrorRate) ||
			b.rateTripped(b.misses, b.cfg.MissRate)) {
			b.trip(now)
		}
	case BreakerHalfOpen:
		if !probe {
			return
		}
		if failed || missed {
			b.trip(now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.reset()
			b.counts.Closed++
		}
	case BreakerOpen:
		// A straggler completing after a trip: the window was reset, so
		// its outcome is not evidence about the post-trip backend.
	}
}

// rateTripped reports whether count/filled has reached threshold.
func (b *Breaker) rateTripped(count int, threshold float64) bool {
	if threshold < 0 {
		return false
	}
	return float64(count) >= threshold*float64(b.filled)
}

// push adds one outcome to the rolling window, evicting the oldest.
func (b *Breaker) push(failed, missed bool) {
	old := b.window[b.pos]
	b.errs -= int(old & outcomeErr)
	b.misses -= int(old&outcomeMiss) >> 1
	var bits uint8
	if failed {
		bits |= outcomeErr
		b.errs++
	}
	if missed {
		bits |= outcomeMiss
		b.misses++
	}
	b.window[b.pos] = bits
	b.pos = (b.pos + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
}

// trip opens the breaker at now and restarts the evidence window.
func (b *Breaker) trip(now float64) {
	b.state = BreakerOpen
	b.reopenAt = now + b.cfg.CooldownMS
	b.reset()
	b.counts.Opened++
}

// reset clears the rolling window and probe bookkeeping.
func (b *Breaker) reset() {
	for i := range b.window {
		b.window[i] = 0
	}
	b.pos, b.filled, b.errs, b.misses = 0, 0, 0, 0
	b.probes, b.probeOK = 0, 0
}
