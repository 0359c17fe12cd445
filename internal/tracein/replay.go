package tracein

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects how the replayer paces arrivals.
type Mode int

const (
	// OpenLoop replays each record at its recorded timestamp,
	// regardless of how the device is keeping up — the trace is the
	// arrival process, so overload shows up as queueing, exactly as it
	// did on the traced machine.
	OpenLoop Mode = iota
	// ClosedLoop replays records in order through a fixed population of
	// clients, each issuing its next request a think time after the
	// previous one completes — the device's speed sets the pace, as
	// with interactive users.
	ClosedLoop
)

// String names the mode for flags and report rows.
func (m Mode) String() string {
	if m == ClosedLoop {
		return "closed"
	}
	return "open"
}

// ParseMode maps a replay-mode flag value to its Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	}
	return OpenLoop, fmt.Errorf("tracein: unknown replay mode %q (want open or closed)", name)
}

// ReplayOptions configures a Replayer.
type ReplayOptions struct {
	// Mode selects open- or closed-loop pacing.
	Mode Mode
	// Clients is the closed-loop population size; zero selects 8.
	// Ignored in open loop.
	Clients int
	// ThinkMS is the closed-loop mean think time between a completion
	// and the client's next request; zero selects 10 ms. Ignored in
	// open loop.
	ThinkMS float64
	// Seed seeds the closed-loop think-time stream.
	Seed int64
}

// Result summarizes a finished replay.
type Result struct {
	// Completed and Errors count finished requests by outcome.
	Completed int
	// Errors counts requests that failed (device faults).
	Errors int
	// ElapsedMS is the simulated time from replay start to the last
	// completion.
	ElapsedMS float64
}

// inflight tracks one outstanding request. Instances are pooled and
// each carries its DoneFunc closure, built once at allocation, so the
// steady-state replay path schedules and completes requests without
// allocating. The replayer looks at no byte a read returns and is the
// buffer's last owner, so both closures hand it straight back.
type inflight struct {
	r       *Replayer
	issueMS float64
	done    driver.DoneFunc
}

// Replayer drives a block device with a parsed (and possibly scaled)
// trace in simulated time. It validates every record against the
// device's label before starting, so a trace that doesn't fit the
// device fails fast with a typed error instead of mid-replay.
type Replayer struct {
	eng  *sim.Engine
	dev  driver.BlockDevice
	recs []trace.Record
	o    ReplayOptions

	zero    []byte
	free    []*inflight
	baseMS  float64
	startMS float64
	next    int // next record index (both modes)
	out     int // outstanding requests
	clients int // live closed-loop clients
	res     Result
	onDone  func(Result)
	hist    *metrics.Histogram // optional latency histogram
	reqs    int64              // lifetime issued requests (for metrics)
}

// NewReplayer builds a replayer for the given records over the device.
// The record slice is read, never modified; it must stay unchanged for
// the replayer's lifetime.
func NewReplayer(eng *sim.Engine, dev driver.BlockDevice, recs []trace.Record, o ReplayOptions) (*Replayer, error) {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.ThinkMS <= 0 {
		o.ThinkMS = 10
	}
	if err := Validate(dev, recs); err != nil {
		return nil, err
	}
	return &Replayer{
		eng:  eng,
		dev:  dev,
		recs: recs,
		o:    o,
		zero: make([]byte, dev.BlockSize().Bytes()),
	}, nil
}

// Validate checks that every record addresses a partition and block
// that exist on the device, returning ErrOutOfRange (wrapped with the
// record index) on the first violation.
func Validate(dev driver.BlockDevice, recs []trace.Record) error {
	lbl := dev.Label()
	bsec := int64(dev.BlockSize().Sectors())
	var blocks [label.MaxPartitions]int64
	for i := range blocks {
		blocks[i] = -1 // unprobed
	}
	for i, rec := range recs {
		if rec.Part < 0 || rec.Part >= len(blocks) {
			return fmt.Errorf("record %d: partition %d: %w", i, rec.Part, ErrOutOfRange)
		}
		if blocks[rec.Part] < 0 {
			p, err := lbl.Partition(rec.Part)
			if err != nil {
				return fmt.Errorf("record %d: partition %d: %w (%v)", i, rec.Part, ErrOutOfRange, err)
			}
			blocks[rec.Part] = p.Size / bsec
		}
		if rec.Block < 0 || rec.Block >= blocks[rec.Part] {
			return fmt.Errorf("record %d: block %d of partition %d (size %d blocks): %w",
				i, rec.Block, rec.Part, blocks[rec.Part], ErrOutOfRange)
		}
	}
	return nil
}

// BindMetrics registers the replayer's instruments on a metrics
// registry: the per-request latency histogram (which also feeds P99 in
// the experiment report) and a lifetime request counter.
func (r *Replayer) BindMetrics(reg *metrics.Registry) {
	r.hist = reg.Histogram("replay_latency_ms", metrics.HistogramOpts{})
	reg.CounterFunc("replay_requests", func() int64 { return r.reqs })
}

// Latency returns the bound latency histogram, nil before BindMetrics.
func (r *Replayer) Latency() *metrics.Histogram { return r.hist }

// Start schedules the replay beginning at the engine's current time;
// done (optional) fires when the last request completes. Run the engine
// to drive it. A replayer replays once; build a new one for another
// pass.
func (r *Replayer) Start(done func(Result)) {
	r.onDone = done
	r.startMS = r.eng.Now()
	if len(r.recs) == 0 {
		r.eng.After(0, r.finish)
		return
	}
	if r.o.Mode == ClosedLoop {
		rnd := sim.NewRand(uint64(r.o.Seed))
		n := r.o.Clients
		if n > len(r.recs) {
			n = len(r.recs)
		}
		r.clients = n
		for i := 0; i < n; i++ {
			c := &clClient{r: r, rnd: rnd.Split()}
			c.inf.r = r
			c.inf.done = func(data []byte, err error) {
				driver.Recycle(data)
				c.complete(err)
			}
			// Stagger client starts by one think time draw each, so the
			// population doesn't arrive as a single burst.
			r.eng.AfterCall(c.rnd.Exp(r.o.ThinkMS), c)
		}
		return
	}
	r.baseMS = r.eng.Now() - r.recs[0].TimeMS
	cur := &openCursor{r: r}
	r.eng.AtCall(r.baseMS+r.recs[0].TimeMS, cur)
}

// issue sends one record to the device, charging it to a pooled
// inflight slot.
func (r *Replayer) issue(rec trace.Record, inf *inflight) {
	inf.issueMS = r.eng.Now()
	r.out++
	r.reqs++
	if rec.Write {
		r.dev.WriteBlock(rec.Part, rec.Block, r.zero, inf.done)
	} else {
		r.dev.ReadBlock(rec.Part, rec.Block, inf.done)
	}
}

// getInflight pops a pooled slot, growing the pool when the open-loop
// in-flight population outruns it.
func (r *Replayer) getInflight() *inflight {
	if n := len(r.free); n > 0 {
		inf := r.free[n-1]
		r.free = r.free[:n-1]
		return inf
	}
	inf := &inflight{r: r}
	inf.done = func(data []byte, err error) {
		driver.Recycle(data)
		inf.r.complete(inf, err)
	}
	return inf
}

// complete is the shared completion path: record the latency, recycle
// the slot, and finish the replay when the last request lands.
func (r *Replayer) complete(inf *inflight, err error) {
	if r.hist != nil {
		r.hist.Record(r.eng.Now() - inf.issueMS)
	}
	if err != nil {
		r.res.Errors++
	} else {
		r.res.Completed++
	}
	r.out--
	r.free = append(r.free, inf)
	if r.out == 0 && r.next >= len(r.recs) && r.clients == 0 {
		r.finish()
	}
}

func (r *Replayer) finish() {
	r.res.ElapsedMS = r.eng.Now() - r.startMS
	if r.onDone != nil {
		r.onDone(r.res)
	}
}

// openCursor walks the trace in open loop: each firing issues the
// record whose arrival time has come and schedules itself for the next
// one, so at most one arrival event is ever queued no matter how long
// the trace is.
type openCursor struct {
	r *Replayer
}

// Call issues every record due now, then reschedules for the next
// arrival.
func (c *openCursor) Call() {
	r := c.r
	now := r.eng.Now()
	for r.next < len(r.recs) && r.baseMS+r.recs[r.next].TimeMS <= now {
		rec := r.recs[r.next]
		r.next++
		r.issue(rec, r.getInflight())
	}
	if r.next < len(r.recs) {
		r.eng.AtCall(r.baseMS+r.recs[r.next].TimeMS, c)
	}
}

// clClient is one closed-loop client: issue, wait for completion, think,
// repeat. Its inflight slot and DoneFunc are built once at start, so
// the per-request loop does not allocate.
type clClient struct {
	r   *Replayer
	rnd *sim.Rand
	inf inflight
}

// Call pulls the next record off the shared cursor and issues it, or
// retires the client when the trace is exhausted.
func (c *clClient) Call() {
	r := c.r
	if r.next >= len(r.recs) {
		r.clients--
		if r.out == 0 && r.clients == 0 {
			r.finish()
		}
		return
	}
	rec := r.recs[r.next]
	r.next++
	r.issue(rec, &c.inf)
}

// complete finishes the client's outstanding request and schedules its
// next pull after a think time.
func (c *clClient) complete(err error) {
	r := c.r
	if r.hist != nil {
		r.hist.Record(r.eng.Now() - c.inf.issueMS)
	}
	if err != nil {
		r.res.Errors++
	} else {
		r.res.Completed++
	}
	r.out--
	r.eng.AfterCall(c.rnd.Exp(r.o.ThinkMS), c)
}
