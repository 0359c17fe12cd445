package core

import (
	"errors"
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

// RequestTableSize is the size of the fixed request table a driver
// keeps for its analyzer (Section 4.1.4; driver.Config.RequestTableSize):
// 65536 entries, more than a polling period of the modelled workloads
// fills, so recording is not suspended.
const RequestTableSize = 65536

// ErrNoRequestTable is returned by New for a driver that keeps no
// request table.
var ErrNoRequestTable = errors.New("core: driver keeps no request table, " +
	"so the analyzer would count no reference and every hot list would be empty; " +
	"attach the driver with a RequestTableSize (rig.Options, volume.Options or " +
	"driver.Config), e.g. core.RequestTableSize")

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
}

// New returns a rearranger for the given driver.
func New(eng *sim.Engine, drv *driver.Driver, cfg Config) (*Rearranger, error) {
	if !drv.Rearranged() {
		return nil, fmt.Errorf("core: driver's disk has no reserved region")
	}
	if drv.RequestTableSize() == 0 {
		return nil, ErrNoRequestTable
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
	return &Rearranger{eng: eng, drv: drv, cfg: cfg}, nil
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
		r.copyNext(moves, 0, done)
	})
}

// RearrangeIncremental runs one rearrangement cycle like Rearrange, but
// computes the difference against the blocks already in the reserved
// region and only moves what changed: blocks that keep their reserved
// slot stay put, stale blocks are cleaned out individually, and only new
// or relocated blocks are copied. Because access patterns change slowly,
// the daily difference is small, so the cycle costs a fraction of the
// I/O of a full Clean+copy — the incremental-rearrangement benefit the
// paper credits block granularity with (Section 1.1). done receives the
// number of blocks copied in (kept blocks are not counted).
func (r *Rearranger) RearrangeIncremental(done func(moved int, err error)) {
	hot := r.HotList()
	moves := r.cfg.Policy.Place(hot, r.drv.ReservedSlots(), r.cfg.MaxBlocks, r.drv.BlockSize())
	desired := make(map[int64]int64, len(moves)) // orig -> dst
	for _, m := range moves {
		desired[m.Orig] = m.Dst
	}
	// Split the work: stale entries to clean, changed/new blocks to copy.
	var toClean []int64
	for _, e := range r.drv.BlockTable() {
		if dst, ok := desired[e.Orig]; ok && dst == e.New {
			delete(desired, e.Orig) // already in place
			continue
		}
		toClean = append(toClean, e.Orig)
	}
	var toCopy []Move
	for _, m := range moves {
		if _, ok := desired[m.Orig]; ok {
			toCopy = append(toCopy, m)
		}
	}
	var cleanNext func(i int)
	cleanNext = func(i int) {
		if i == len(toClean) {
			r.copyNext(toCopy, 0, done)
			return
		}
		r.drv.BClean(toClean[i], func(err error) {
			if err != nil {
				finish(done, 0, fmt.Errorf("core: incremental clean of block %d: %w", toClean[i], err))
				return
			}
			cleanNext(i + 1)
		})
	}
	cleanNext(0)
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

func (r *Rearranger) copyNext(moves []Move, i int, done func(int, error)) {
	if i >= len(moves) {
		finish(done, len(moves), nil)
		return
	}
	r.drv.BCopy(moves[i].Orig, moves[i].Dst, func(err error) {
		if err != nil {
			finish(done, i, fmt.Errorf("core: copying block %d: %w", moves[i].Orig, err))
			return
		}
		r.copyNext(moves, i+1, done)
	})
}

func finish(done func(int, error), n int, err error) {
	if done != nil {
		done(n, err)
	}
}
