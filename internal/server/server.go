// Package server simulates a multi-tenant storage server front end in
// front of any driver.BlockDevice (a single disk driver or a logical
// volume). Tenants submit block requests over a simulated network link
// — a fixed propagation latency plus a serialization delay proportional
// to the bytes moved — and the server applies, in order:
//
//   - a per-backend circuit breaker (closed/open/half-open, tripping on
//     windowed error or deadline-miss rates), so a dying backend sheds
//     load instead of accumulating an unbounded queue;
//   - per-tenant token-bucket rate limiting, the QoS isolation that
//     keeps one noisy tenant from starving the rest;
//   - admission control: a bounded number of in-flight backend
//     requests, a bounded FIFO accept queue behind them, and load
//     shedding beyond that.
//
// Admitted requests carry a per-class deadline. Backend errors are
// retried with bounded exponential simulated-time backoff — the same
// retry shape the device driver uses one layer down — but never past
// the request's deadline; a request that completes late is answered
// with ErrDeadline, and one that expires while still queued is failed
// without touching the backend. Rejections are typed: ErrThrottled
// (rate limit), ErrOverload (queue full or breaker open, which wraps
// ErrOverload), ErrDeadline — alongside the driver's ErrDead/ErrCrash
// surfacing from the backend.
//
// Everything is scheduled on the caller's sim.Engine and all state
// lives on that engine's goroutine, so a run is deterministic: for the
// same configuration and request stream the server makes byte-identical
// decisions for any harness worker count.
package server

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Typed rejection taxonomy. ErrCircuitOpen wraps ErrOverload so
// errors.Is(err, ErrOverload) covers both shedding causes.
var (
	// ErrThrottled rejects a request that exceeded its tenant's token
	// bucket.
	ErrThrottled = errors.New("server: tenant throttled")
	// ErrOverload rejects a request the accept queue had no room for.
	ErrOverload = errors.New("server: overloaded")
	// ErrCircuitOpen rejects a request while the backend's circuit
	// breaker is open.
	ErrCircuitOpen = fmt.Errorf("server: circuit open: %w", ErrOverload)
	// ErrDeadline fails a request whose deadline passed before a
	// response could be delivered.
	ErrDeadline = errors.New("server: deadline exceeded")
)

// LinkConfig models one network direction: a fixed propagation latency
// plus serialization at a bandwidth.
type LinkConfig struct {
	// LatencyMS is the one-way propagation delay in simulated ms; zero
	// selects 0.2 (a datacenter hop).
	LatencyMS float64
	// BandwidthMBps is the link bandwidth in MB/s; zero selects 100
	// (gigabit-class). Negative disables serialization delay.
	BandwidthMBps float64
}

func (l LinkConfig) withDefaults() LinkConfig {
	if l.LatencyMS == 0 {
		l.LatencyMS = 0.2
	}
	if l.BandwidthMBps == 0 {
		l.BandwidthMBps = 100
	}
	return l
}

// DelayMS returns the one-way transfer time of a message, in simulated
// milliseconds: propagation plus serialization.
func (l LinkConfig) DelayMS(bytes int) float64 {
	d := l.LatencyMS
	if l.BandwidthMBps > 0 {
		d += float64(float64(bytes) / (l.BandwidthMBps * 1e6) * 1000)
	}
	return d
}

// ClassConfig is one tenant class's QoS contract.
type ClassConfig struct {
	// Name labels the class in metrics and reports.
	Name string
	// TokenRate and TokenBurst parameterize each tenant's bucket, in
	// requests per simulated second and requests.
	TokenRate  float64
	TokenBurst float64
	// DeadlineMS is the end-to-end request deadline, measured from
	// client submission.
	DeadlineMS float64
}

// DefaultClasses returns the three-tier class ladder the tenant-scale
// experiment uses: per-tenant rates sized far above a tenant's fair
// share of aggregate load (so normal traffic never throttles) but far
// below a flooding tenant's rate.
func DefaultClasses() []ClassConfig {
	return []ClassConfig{
		{Name: "gold", TokenRate: 8, TokenBurst: 16, DeadlineMS: 600},
		{Name: "silver", TokenRate: 4, TokenBurst: 8, DeadlineMS: 1200},
		{Name: "bronze", TokenRate: 2, TokenBurst: 4, DeadlineMS: 2400},
	}
}

// Config parameterizes a Server. An experiment sets Tenants, Net and
// QoSOff; the rest are the seams the tests use to reach shedding and
// the breaker with small numbers (DESIGN.md "Configuration surface").
type Config struct {
	// Tenants is the tenant population; each tenant owns one token
	// bucket. Zero selects 1.
	Tenants int
	// Classes lists the tenant classes; Read/Write take a class index
	// into it. Nil selects DefaultClasses.
	Classes []ClassConfig
	// Net is the client↔server link model, applied symmetrically.
	Net LinkConfig
	// QoSOff disables per-tenant token buckets — the noisy-neighbor
	// baseline. Admission control and the breaker stay on.
	QoSOff bool
	// MaxInFlight bounds concurrent backend requests; zero selects 32.
	MaxInFlight int
	// QueueCap bounds the accept queue behind the in-flight window;
	// requests beyond it are shed with ErrOverload. Zero selects 256.
	QueueCap int
	// MaxRetries bounds the RPC-layer retry ladder, which mirrors the
	// driver's: up to MaxRetries re-issues with backoff retryBaseMS *
	// 2^(attempt-1). Zero selects 3; negative disables retries.
	MaxRetries int
	// Breaker parameterizes the backend circuit breaker.
	Breaker BreakerConfig
}

const (
	// retryBaseMS is the first backoff of the RPC-layer retry ladder,
	// in simulated milliseconds; each further attempt doubles it.
	retryBaseMS = 2.0
	// headerBytes is the request/response envelope size put on the
	// wire in addition to block payloads.
	headerBytes = 128
)

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Classes == nil {
		c.Classes = DefaultClasses()
	}
	c.Net = c.Net.withDefaults()
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	return c
}

// Counters are the server's lifetime counters, in request units unless
// noted. Accepted + Throttled + Overloaded + BreakerRejects = arrivals;
// Completed + Failed + Expired + DeadlineMiss = accepted requests that
// have been answered. Submitted, Throttled and Completed are the sums
// of the per-class counts.
type Counters struct {
	// Submitted counts client submissions; Accepted counts those that
	// passed admission (breaker, token bucket, queue bound).
	Submitted int64
	Accepted  int64
	// Throttled, Overloaded and BreakerRejects count rejections by
	// cause: token bucket, full accept queue, open breaker.
	Throttled      int64
	Overloaded     int64
	BreakerRejects int64
	// Expired counts requests whose deadline passed while still queued
	// (failed without backend I/O); DeadlineMiss counts requests whose
	// backend completion came back after the deadline.
	Expired      int64
	DeadlineMiss int64
	// Retries counts backend re-issues; BackoffMS accumulates the
	// simulated time spent waiting between them.
	Retries   int64
	BackoffMS float64
	// Completed counts requests answered successfully; Failed counts
	// requests answered with a backend error after retries.
	Completed int64
	Failed    int64
}

// ClassStat is one tenant class's outcome summary.
type ClassStat struct {
	Name string
	// Submitted and Throttled count arrivals and rate-limit rejections;
	// Completed counts successful responses.
	Submitted int64
	Throttled int64
	Completed int64
	// P50/P99/P999 are end-to-end latency quantiles (submission to
	// response arrival, simulated ms) over answered admitted requests.
	P50, P99, P999 float64
}

// classState is the per-class hot state: the class's share of the
// Submitted, Throttled and Completed counters, and its latency
// histogram, always on (it feeds ClassStats; BindMetrics adopts it).
type classState struct {
	cfg       ClassConfig
	submitted int64
	throttled int64
	completed int64
	hist      *metrics.Histogram
}

// Server is the simulated front end. All methods must run on the
// engine's goroutine; the server is event-driven and lock-free.
type Server struct {
	eng *sim.Engine
	dev driver.BlockDevice
	cfg Config

	// buckets holds a token bucket for each tenant that has sent a
	// request; it stays empty when QoS is off.
	buckets bucketTable
	breaker *Breaker
	classes []classState

	inflight int
	qhead    *sreq
	qtail    *sreq
	qlen     int

	free *sreq
	wbuf []byte // shared write payload; content is never read back

	// cnt holds every counter but the three kept per class;
	// Counters adds their class sums.
	cnt Counters
}

// New builds a server fronting dev on eng. The configuration is
// validated eagerly: an invalid class table is a construction error,
// not a per-request one.
func New(eng *sim.Engine, dev driver.BlockDevice, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Classes) == 0 {
		return nil, errors.New("server: no tenant classes")
	}
	for i, c := range cfg.Classes {
		if c.Name == "" || c.TokenRate <= 0 || c.TokenBurst < 1 || c.DeadlineMS <= 0 {
			return nil, fmt.Errorf("server: class %d (%q) needs a name, positive rate/deadline and burst >= 1", i, c.Name)
		}
	}
	s := &Server{
		eng:     eng,
		dev:     dev,
		cfg:     cfg,
		breaker: NewBreaker(cfg.Breaker),
		classes: make([]classState, len(cfg.Classes)),
		wbuf:    make([]byte, dev.BlockSize().Bytes()),
	}
	for i, c := range cfg.Classes {
		s.classes[i] = classState{cfg: c, hist: metrics.NewHistogram(metrics.HistogramOpts{})}
	}
	return s, nil
}

// Counters returns the lifetime counters.
func (s *Server) Counters() Counters {
	c := s.cnt
	for i := range s.classes {
		cl := &s.classes[i]
		c.Submitted += cl.submitted
		c.Throttled += cl.throttled
		c.Completed += cl.completed
	}
	return c
}

// Breaker returns the backend circuit breaker, for probes and tests.
func (s *Server) Breaker() *Breaker { return s.breaker }

// ClassStats summarizes every class from the always-on histograms.
func (s *Server) ClassStats() []ClassStat {
	out := make([]ClassStat, len(s.classes))
	for i := range s.classes {
		c := &s.classes[i]
		st := ClassStat{
			Name:      c.cfg.Name,
			Submitted: c.submitted,
			Throttled: c.throttled,
			Completed: c.completed,
		}
		if c.hist.Count() > 0 {
			st.P50 = c.hist.Quantile(0.5)
			st.P99 = c.hist.Quantile(0.99)
			st.P999 = c.hist.Quantile(0.999)
		}
		out[i] = st
	}
	return out
}

// BindMetrics registers the server's instruments in reg under the given
// labels: each tenant class's end-to-end latency histogram
// (server_req_ms{class="..."}, answered admitted requests since the
// server was built), per-class arrival/throttle counters, the
// admission/deadline/retry counters, the breaker's state gauge and
// transition counters, and gauges of the accept queue and the backend
// requests in flight.
func (s *Server) BindMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	for i := range s.classes {
		c := &s.classes[i]
		cl := append(append([]metrics.Label(nil), labels...), metrics.Label{Key: "class", Value: c.cfg.Name})
		reg.AdoptHistogram("server_req_ms", c.hist, cl...)
		reg.CounterFunc("server_class_submitted", func() int64 { return c.submitted }, cl...)
		reg.CounterFunc("server_class_throttled", func() int64 { return c.throttled }, cl...)
	}
	reg.CounterFunc("server_submitted", func() int64 { return s.Counters().Submitted }, labels...)
	reg.CounterFunc("server_accepted", func() int64 { return s.cnt.Accepted }, labels...)
	reg.CounterFunc("server_throttled", func() int64 { return s.Counters().Throttled }, labels...)
	reg.CounterFunc("server_overloaded", func() int64 { return s.cnt.Overloaded }, labels...)
	reg.CounterFunc("server_breaker_rejects", func() int64 { return s.cnt.BreakerRejects }, labels...)
	reg.CounterFunc("server_expired", func() int64 { return s.cnt.Expired }, labels...)
	reg.CounterFunc("server_deadline_miss", func() int64 { return s.cnt.DeadlineMiss }, labels...)
	reg.CounterFunc("server_retries", func() int64 { return s.cnt.Retries }, labels...)
	reg.GaugeFunc("server_backoff_ms", func() float64 { return s.cnt.BackoffMS }, labels...)
	reg.CounterFunc("server_completed", func() int64 { return s.Counters().Completed }, labels...)
	reg.CounterFunc("server_failed", func() int64 { return s.cnt.Failed }, labels...)
	reg.CounterFunc("server_breaker_opened", func() int64 { return s.breaker.counts.Opened }, labels...)
	reg.CounterFunc("server_breaker_half_opened", func() int64 { return s.breaker.counts.HalfOpened }, labels...)
	reg.CounterFunc("server_breaker_closed", func() int64 { return s.breaker.counts.Closed }, labels...)
	reg.GaugeFunc("server_breaker_state", func() float64 { return float64(s.breaker.state) }, labels...)
	reg.GaugeFunc("server_accept_queue_len", func() float64 { return float64(s.qlen) }, labels...)
	reg.GaugeFunc("server_inflight", func() float64 { return float64(s.inflight) }, labels...)
}

// Read submits one tenant block read. done fires on the client side of
// the link — after the response has crossed the network — with the
// block data or a typed error.
func (s *Server) Read(tenant, class int, blk int64, done driver.DoneFunc) {
	s.submit(tenant, class, false, blk, done)
}

// Write submits one tenant block write. The payload is synthesized by
// the server (content is never read back in this simulation); its wire
// size still pays serialization delay on the request path.
func (s *Server) Write(tenant, class int, blk int64, done driver.DoneFunc) {
	s.submit(tenant, class, true, blk, done)
}

// submit puts one request on the wire at the current simulated time.
func (s *Server) submit(tenant, class int, write bool, blk int64, done driver.DoneFunc) {
	if tenant < 0 || tenant >= s.cfg.Tenants {
		panic(fmt.Sprintf("server: tenant %d out of range [0, %d)", tenant, s.cfg.Tenants))
	}
	if class < 0 || class >= len(s.classes) {
		panic(fmt.Sprintf("server: class %d out of range [0, %d)", class, len(s.classes)))
	}
	s.classes[class].submitted++
	r := s.getReq()
	r.tenant, r.class, r.write, r.blk = tenant, class, write, blk
	r.submitMS = s.eng.Now()
	r.done = done
	bytes := headerBytes
	if write {
		bytes += len(s.wbuf)
	}
	s.eng.After(s.cfg.Net.DelayMS(bytes), r.arriveFn)
}

// arrive runs admission when the request reaches the server: breaker,
// token bucket, then the in-flight window and accept queue.
func (s *Server) arrive(r *sreq) {
	now := s.eng.Now()
	ok, probe := s.breaker.Allow(now)
	if !ok {
		s.cnt.BreakerRejects++
		s.respond(r, nil, ErrCircuitOpen)
		return
	}
	r.probe = probe
	if !s.cfg.QoSOff {
		b, seen := s.buckets.get(r.tenant)
		if !seen {
			// First sight of this tenant: fill its bucket for its
			// class. Every tenant has had a full bucket since the
			// server was built, and a full bucket refills to no more
			// than its burst, so filling it now is the same bucket. A
			// tenant's bucket keeps the contract of its first
			// request's class (tenants do not change class mid-run).
			*b = NewTokenBucket(r.class, &s.classes[r.class].cfg, now)
		}
		if !b.Take(now, &s.classes[b.class].cfg) {
			if r.probe {
				// The probe never reached the backend: free its slot so
				// the breaker's recovery cannot deadlock on it.
				s.breaker.ProbeAborted()
				r.probe = false
			}
			s.classes[r.class].throttled++
			s.respond(r, nil, ErrThrottled)
			return
		}
	}
	r.deadlineMS = r.submitMS + s.classes[r.class].cfg.DeadlineMS
	if s.inflight < s.cfg.MaxInFlight {
		s.cnt.Accepted++
		s.inflight++
		s.issue(r)
		return
	}
	if s.qlen >= s.cfg.QueueCap {
		if r.probe {
			s.breaker.ProbeAborted()
			r.probe = false
		}
		s.cnt.Overloaded++
		s.respond(r, nil, ErrOverload)
		return
	}
	s.cnt.Accepted++
	r.qnext = nil
	if s.qtail == nil {
		s.qhead = r
	} else {
		s.qtail.qnext = r
	}
	s.qtail = r
	s.qlen++
}

// issue performs one backend attempt.
func (s *Server) issue(r *sreq) {
	if r.write {
		s.dev.WriteBlock(0, r.blk, s.wbuf, r.backendCB)
	} else {
		s.dev.ReadBlock(0, r.blk, r.backendCB)
	}
}

// backendDone handles a backend completion: retry transiently within
// the deadline, otherwise feed the breaker and answer the client.
func (s *Server) backendDone(r *sreq, data []byte, err error) {
	now := s.eng.Now()
	if err != nil && r.attempt < s.cfg.MaxRetries {
		backoff := retryBaseMS * float64(int64(1)<<r.attempt)
		if now+backoff < r.deadlineMS {
			r.attempt++
			s.cnt.Retries++
			s.cnt.BackoffMS += backoff
			s.eng.After(backoff, r.issueFn)
			return
		}
	}
	missed := now > r.deadlineMS
	s.breaker.Record(now, err != nil, missed, r.probe)
	if missed {
		s.cnt.DeadlineMiss++
		if err == nil {
			// The backend answered, but the client has given up: the
			// response is discarded and the request fails late.
			data, err = nil, ErrDeadline
		}
	}
	s.inflight--
	s.drain()
	s.finish(r, data, err, missed)
}

// drain dispatches queued requests into freed in-flight slots,
// expiring entries whose deadline already passed — their client has
// given up, so issuing backend I/O for them would only add load.
func (s *Server) drain() {
	now := s.eng.Now()
	for s.inflight < s.cfg.MaxInFlight && s.qhead != nil {
		r := s.qhead
		s.qhead = r.qnext
		if s.qhead == nil {
			s.qtail = nil
		}
		s.qlen--
		r.qnext = nil
		if now >= r.deadlineMS {
			s.cnt.Expired++
			// Queue expiry is congestion evidence: feed it to the
			// breaker as a deadline miss even though no backend attempt
			// was made.
			s.breaker.Record(now, false, true, r.probe)
			s.finish(r, nil, ErrDeadline, true)
			continue
		}
		s.inflight++
		s.issue(r)
	}
}

// finish accounts one answered admitted request and sends the response
// back over the link.
func (s *Server) finish(r *sreq, data []byte, err error, missed bool) {
	if err == nil {
		s.classes[r.class].completed++
	} else if !missed {
		s.cnt.Failed++
	}
	r.record = true
	s.respond(r, data, err)
}

// respond schedules the client-side delivery of a response (or
// rejection). Read payloads pay serialization delay on the way back.
func (s *Server) respond(r *sreq, data []byte, err error) {
	r.data, r.err = data, err
	bytes := headerBytes + len(data)
	s.eng.After(s.cfg.Net.DelayMS(bytes), r.respondFn)
}

// deliver runs on the client side: record latency for answered
// admitted requests, then hand the result to the caller's done.
func (s *Server) deliver(r *sreq) {
	if r.record {
		s.classes[r.class].hist.Record(s.eng.Now() - r.submitMS)
	}
	done, data, err := r.done, r.data, r.err
	s.putReq(r)
	if done != nil {
		done(data, err)
	}
}

// sreq is the pooled per-request record. Its schedulable continuations
// (arrival, retry re-issue, response delivery) and its backend
// completion callback are built once per record, so a steady-state
// request allocates nothing at the server layer. Records live on the
// engine goroutine only; the pool needs no lock.
type sreq struct {
	s     *Server
	next  *sreq // pool link
	qnext *sreq // accept-queue link

	tenant, class int
	write         bool
	blk           int64
	submitMS      float64
	deadlineMS    float64
	attempt       int
	probe         bool
	record        bool // answered admitted request: record latency

	data []byte
	err  error
	done driver.DoneFunc

	arriveFn  func()
	issueFn   func()
	respondFn func()
	backendCB driver.DoneFunc
}

// getReq pops a pooled record, building one — with its reusable
// continuations — on first use.
func (s *Server) getReq() *sreq {
	r := s.free
	if r == nil {
		r = &sreq{s: s}
		r.arriveFn = func() { r.s.arrive(r) }
		r.issueFn = func() { r.s.issue(r) }
		r.respondFn = func() { r.s.deliver(r) }
		r.backendCB = func(data []byte, err error) { r.s.backendDone(r, data, err) }
		return r
	}
	s.free = r.next
	r.next = nil
	return r
}

// putReq recycles a finished record, dropping references the pool must
// not pin.
func (s *Server) putReq(r *sreq) {
	r.done, r.data, r.err = nil, nil, nil
	r.qnext = nil
	r.attempt = 0
	r.probe, r.record = false, false
	r.next = s.free
	s.free = r
}
