package core

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/hotlist"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultPollPeriodMS is the analyzer's request-table polling period:
// two minutes, the period used in the paper's experiments (Section
// 4.1.4), short enough that recording was almost never suspended.
const DefaultPollPeriodMS = 2 * 60 * 1000

// RequestTableSize is the size of the fixed request table a rearranger
// gives its driver by default (Section 4.1.4): 65536 entries, more than
// a polling period of the modelled workloads fills, so recording is not
// suspended.
const RequestTableSize = 65536

// Config carries rearranger tunables.
type Config struct {
	// Policy is the placement policy; nil selects organ-pipe.
	Policy Policy
	// Counter accumulates reference counts; nil selects an exact
	// counter (the paper's analyzer list was large enough that
	// replacement was rarely necessary).
	Counter hotlist.Counter
	// MaxBlocks caps how many blocks are rearranged per cycle; zero
	// means "as many as fit in the reserved region".
	MaxBlocks int
	// PollPeriodMS is the analyzer polling period; zero selects the
	// paper's two minutes.
	PollPeriodMS float64
	// RequestTableSize is the capacity of the request table New gives
	// the driver; zero selects RequestTableSize.
	RequestTableSize int
}

// Rearranger is the adaptive block rearrangement controller: the
// user-level analyzer and arranger of Section 4.2 driving the modified
// driver's ioctls.
type Rearranger struct {
	eng *sim.Engine
	drv *driver.Driver
	cfg Config

	monitoring bool
	pollSeq    int // invalidates scheduled polls on stop
	missed     int64

	// The copy-in in flight: the cycle's moves, the index of the one
	// being copied, and the cycle's callback. copiedFn is copied, bound
	// once in New, so a cycle allocates nothing per block copied.
	moves    []Move
	next     int
	copyDone func(int, error)
	copiedFn driver.ErrFunc
}

// New returns a rearranger for the given driver and gives the driver
// the request table its analyzer reads: the driver records every
// request from here on, until Close.
func New(eng *sim.Engine, drv *driver.Driver, cfg Config) (*Rearranger, error) {
	if !drv.Rearranged() {
		return nil, fmt.Errorf("core: driver's disk has no reserved region")
	}
	if cfg.RequestTableSize <= 0 {
		cfg.RequestTableSize = RequestTableSize
	}
	if cfg.Policy == nil {
		cfg.Policy = OrganPipe{}
	}
	if cfg.Counter == nil {
		cfg.Counter = hotlist.NewExact()
	}
	if cfg.PollPeriodMS <= 0 {
		cfg.PollPeriodMS = DefaultPollPeriodMS
	}
	if cfg.MaxBlocks <= 0 {
		var capacity int
		for _, cyl := range drv.ReservedSlots() {
			capacity += len(cyl)
		}
		cfg.MaxBlocks = capacity
	}
	drv.SetRequestTableSize(cfg.RequestTableSize)
	r := &Rearranger{eng: eng, drv: drv, cfg: cfg}
	r.copiedFn = r.copied
	return r, nil
}

// Policy returns the placement policy in use.
func (r *Rearranger) Policy() Policy { return r.cfg.Policy }

// BindMetrics registers the analyzer's hot-list gauges in reg under the
// given labels (a volume labels each member disk="i"): core_hot_tracked,
// how many blocks the reference counter tracks, and core_hot_churn, how
// many of the 64 hottest blocks were not among the 64 hottest when it
// was last read — the paper's Figure 5 convergence signal at sampler
// resolution. Reading core_hot_churn advances it: each read keeps the
// set it saw for the next, so the sampler's ticks and the end-of-run
// snapshot each take a turn.
func (r *Rearranger) BindMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.GaugeFunc("core_hot_tracked", func() float64 { return float64(r.cfg.Counter.Len()) }, labels...)
	const topK = 64
	prev := map[int64]bool{}
	reg.GaugeFunc("core_hot_churn", func() float64 {
		top := r.cfg.Counter.Top(topK)
		next := make(map[int64]bool, len(top))
		churn := 0
		for _, bc := range top {
			next[bc.Block] = true
			if !prev[bc.Block] {
				churn++
			}
		}
		prev = next
		return float64(churn)
	}, labels...)
}

// StartMonitoring begins periodic polling of the driver's request table,
// as the reference stream analyzer process does while the system runs.
func (r *Rearranger) StartMonitoring() {
	if r.monitoring {
		return
	}
	r.monitoring = true
	r.pollSeq++
	seq := r.pollSeq
	var tick func()
	tick = func() {
		if !r.monitoring || seq != r.pollSeq {
			return
		}
		r.Poll()
		r.eng.After(r.cfg.PollPeriodMS, tick)
	}
	r.eng.After(r.cfg.PollPeriodMS, tick)
}

// StopMonitoring stops the periodic polling and performs a final drain
// so no recorded requests are lost.
func (r *Rearranger) StopMonitoring() {
	if !r.monitoring {
		return
	}
	r.monitoring = false
	r.pollSeq++
	r.Poll()
}

// Poll drains the driver's request table into the reference counter —
// one analyzer wake-up. Reads and writes count alike, as in the paper's
// analyzer.
func (r *Rearranger) Poll() {
	sectors, missed := r.drv.ReadRequestTable()
	r.missed += missed
	for _, sector := range sectors {
		r.cfg.Counter.Observe(sector)
	}
}

// Close ends the analyzer's reading of its driver: monitoring stops,
// the request table is drained one last time and dropped, and the
// driver records nothing from then on. The counts stay, so HotList and
// Rearrange work as before. Call it once no later window is learnt
// from.
func (r *Rearranger) Close() {
	r.monitoring = false
	r.pollSeq++
	r.Poll()
	r.drv.SetRequestTableSize(0)
}

// Missed returns how many requests were lost to a full request table —
// near zero when the polling period is adequate.
func (r *Rearranger) Missed() int64 { return r.missed }

// HotList returns the current top blocks by estimated reference count.
func (r *Rearranger) HotList() []hotlist.BlockCount {
	return r.cfg.Counter.Top(r.cfg.MaxBlocks)
}

// ResetCounts clears the reference counter, starting a new measurement
// window (the paper rebuilds its hot list from each day's references).
func (r *Rearranger) ResetCounts() { r.cfg.Counter.Reset() }

// Rearrange runs one rearrangement cycle: it cleans the reserved region
// (returning any dirty blocks to their original locations), computes the
// placement of the current hot list, and copies the selected blocks into
// the reserved region. done receives the number of blocks installed.
// The copies go through the ordinary device queue and interleave with
// other traffic, exactly as the ioctl-driven arranger does.
func (r *Rearranger) Rearrange(done func(moves int, err error)) {
	hot := r.HotList()
	r.drv.Clean(func(err error) {
		if err != nil {
			finish(done, 0, fmt.Errorf("core: cleaning reserved region: %w", err))
			return
		}
		moves := r.cfg.Policy.Place(hot, r.drv.ReservedSlots(), r.cfg.MaxBlocks, r.drv.BlockSize())
		r.copyIn(moves, done)
	})
}

// CleanOnly empties the reserved region without installing new blocks —
// used on the "off" days of the paper's alternating experiments.
func (r *Rearranger) CleanOnly(done func(err error)) {
	r.drv.Clean(func(err error) {
		if done != nil {
			done(err)
		}
	})
}

// copyIn copies moves into the reserved region one block at a time,
// then reports the count to done. A rearranger runs one cycle at a
// time.
func (r *Rearranger) copyIn(moves []Move, done func(int, error)) {
	r.moves, r.next, r.copyDone = moves, 0, done
	r.copyNext()
}

func (r *Rearranger) copyNext() {
	if r.next < len(r.moves) {
		m := r.moves[r.next]
		r.drv.BCopy(m.Orig, m.Dst, r.copiedFn)
		return
	}
	r.endCopy(len(r.moves), nil)
}

// copied is the completion of the block copy in flight.
func (r *Rearranger) copied(err error) {
	if err != nil {
		r.endCopy(r.next, fmt.Errorf("core: copying block %d: %w", r.moves[r.next].Orig, err))
		return
	}
	r.next++
	r.copyNext()
}

// endCopy ends the copy-in, which done may start again.
func (r *Rearranger) endCopy(n int, err error) {
	done := r.copyDone
	r.moves, r.copyDone = nil, nil
	finish(done, n, err)
}

func finish(done func(int, error), n int, err error) {
	if done != nil {
		done(n, err)
	}
}
