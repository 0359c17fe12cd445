// Package driver implements the modified SCSI disk driver of Sections 3.2
// and 4.1 of "Adaptive Block Rearrangement Under UNIX".
//
// The driver sits between the file system and the disk model. Its
// strategy routine converts logical (partition-relative) block addresses
// to physical sector addresses, applies the virtual-disk mapping that
// hides the reserved cylinders, consults the block table to redirect
// requests for rearranged blocks, and enqueues the operation on the
// device queue. Queued operations are dispatched by a head-scheduling
// policy (SCAN by default, as in SunOS) and serviced one at a time by
// the disk model; completions fire in simulated time.
//
// The driver also provides the kernel entry points of Section 4.1.3–4.1.5:
//
//   - BCopy and Clean, the DKIOCBCOPY/DKIOCCLEAN ioctls used by the
//     user-level block arranger to move blocks into and out of the
//     reserved region;
//   - a request-monitoring table that records the original address of
//     every request while the reference stream analyzer owns it
//     (SetRequestTableSize), drained by that analyzer periodically;
//   - performance monitoring: seek-distance distributions in arrival
//     and scheduled order, and service- and queueing-time distributions,
//     kept separately for reads and writes.
package driver

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/blocktable"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config carries the driver tunables some caller varies (rig.New fills
// it from rig.Options); the histogram range and the retry ladder are
// the constants below.
type Config struct {
	// Sched is the head-scheduling policy; nil selects SCAN.
	Sched sched.Scheduler
	// BlockSize is the file system block size; zero selects 8 KB.
	BlockSize geom.BlockSize
	// Faults, when non-nil, is the fault injector shared with the disk.
	// Attaching it switches the driver into fault-tolerant mode: retries
	// with backoff, bad-block remapping, and crash-safe dual-slot block
	// table writes.
	Faults *fault.Injector
}

const (
	// maxRetries bounds re-issues of a transiently failing operation.
	maxRetries = 3
	// retryBaseMS is the first retry backoff in simulated milliseconds;
	// each further attempt doubles it.
	retryBaseMS = 2.0
)

func (c Config) withDefaults() Config {
	if c.Sched == nil {
		c.Sched = sched.NewSCAN()
	}
	if c.BlockSize == 0 {
		c.BlockSize = geom.Block8K
	}
	return c
}

// Errors returned by driver entry points.
var (
	ErrNotRearranged = errors.New("driver: disk is not initialized for rearrangement")
	ErrBadBlock      = errors.New("driver: block address out of range")
	ErrNotAligned    = errors.New("driver: address not block-aligned")
)

// ErrDead is delivered to requests issued after the simulated power
// loss. It unwraps to fault.ErrCrash.
var ErrDead = fmt.Errorf("driver: device is dead: %w", fault.ErrCrash)

// DoneFunc is the completion callback of an asynchronous request. For
// reads, data holds the returned bytes; for writes data is nil. data is
// read-only and shared: it may be the disk store's own page of the
// block, the static zero page, or a buffer another reader holds too.
// The receiver may keep it for as long as it likes and pass it on —
// nothing ever changes or reuses it — but must never modify it.
type DoneFunc func(data []byte, err error)

// ioreq is one queued device operation. Records are pooled: the
// completion path returns them to the driver's free list, so the
// per-request strategy path allocates nothing in steady state. An ioreq
// is also its own completion event (sim.Caller), replacing the closure
// the driver used to allocate per service attempt.
type ioreq struct {
	d          *Driver // owner; set at enqueue, used by Call
	write      bool
	keep       bool  // write: the disk may keep data's pages (disk.WriteOwned)
	internal   bool  // driver-generated (block movement, table writes)
	redirected bool  // sent to the reserved region by the block table
	orig       int64 // pre-redirect physical sector (monitoring identity)
	sector     int64 // post-redirect physical target sector
	count      int   // sectors
	qdepth     int   // operations ahead of this one at queue entry
	attempt    int   // service attempts so far (fault retries)
	phase      string
	data       []byte
	arriveMS   float64
	dispatchMS float64 // first queue exit; retries keep the original
	done       DoneFunc

	// Completion-interrupt payload, filled by issue for Call.
	rdata  []byte
	timing disk.Timing
}

// Call implements sim.Caller: the completion interrupt of the in-flight
// service attempt recorded by issue.
func (r *ioreq) Call() { r.d.interrupt(r, r.rdata, r.timing, r.dispatchMS) }

// Driver is one device instance. It is single-threaded: all entry points
// must be called from the simulation goroutine, exactly as a real
// driver's top half is serialized by the kernel.
type Driver struct {
	eng *sim.Engine
	dsk *disk.Disk
	lbl *label.Label
	bt  *blocktable.Table
	cfg Config

	// queue holds the waiting requests in arrival order, and qcyl each
	// one's target cylinder, index for index: the scheduler picks from
	// qcyl alone.
	queue []*ioreq
	qcyl  []int32
	busy  bool

	// Completed ioreqs are recycled through reqFree, finished block
	// moves through moveFree.
	reqFree  []*ioreq
	moveFree *move

	// tableBuf is the reusable encoding buffer for block-table writes
	// (see writeTable); tableBufBusy guards the window where a queued
	// table write still references it.
	tableBuf     []byte
	tableBufBusy bool

	// Blocks currently being moved by BCopy/Clean; requests targeting
	// them are delayed until movement completes (Section 4.1.3).
	moving  map[int64][]*pendingStrategy
	tableAt int64 // physical sector of the on-disk block table

	mon   *monitor
	stats *Stats
	sink  telemetry.Sink
	ev    telemetry.Event // scratch event, reused across emissions
	cum   Counters
	mx    *driverMetrics // nil until BindMetrics; one comparison per interrupt

	// Fault handling state. inj is the injector shared with the disk
	// (nil when fault injection is off); dead is set by a simulated
	// power loss and fails every subsequent request; remaps is the
	// bad-block remap table mapping a failed physical block to its
	// spare; spares marks reserved slots consumed as spares; spareCursor
	// is the next spare candidate, allocated downward from the top of
	// the reserved region.
	inj         *fault.Injector
	dead        bool
	remaps      map[int64]int64
	spares      map[int64]bool
	spareCursor int64

	// fcfsCyl tracks the cylinder of the previous arrival (in original,
	// unrearranged coordinates) for the arrival-order seek-distance
	// distribution.
	fcfsCyl      int
	haveFCFSPrev bool
}

// pendingStrategy is a request delayed behind an in-flight block move.
type pendingStrategy struct {
	write bool
	keep  bool
	vsec  int64
	count int
	data  []byte
	done  DoneFunc
}

// Attach initializes a driver for the given disk, reading the disk label
// and, for a rearranged disk, the on-disk block table — exactly what the
// paper's modified attach routine does at system start-up. recover
// selects the conservative crash-recovery path that marks all block
// table entries dirty.
func Attach(eng *sim.Engine, dsk *disk.Disk, cfg Config, recover bool) (*Driver, error) {
	cfg = cfg.withDefaults()
	lblBuf := dsk.PeekData(label.LabelSector, 1)
	lbl, err := label.Decode(lblBuf)
	if err != nil {
		return nil, fmt.Errorf("driver attach: %w", err)
	}
	d := &Driver{
		eng:    eng,
		dsk:    dsk,
		lbl:    lbl,
		cfg:    cfg,
		moving: make(map[int64][]*pendingStrategy),
		stats:  newStats(),
		inj:    cfg.Faults,
		remaps: make(map[int64]int64),
		spares: make(map[int64]bool),
	}
	if err := lbl.CheckBlockAligned(cfg.BlockSize.Sectors()); err != nil {
		return nil, fmt.Errorf("driver attach: %w", err)
	}
	if lbl.Rearranged {
		d.tableAt = lbl.ReservedStart
		img := dsk.PeekData(d.tableAt, tableSectors(cfg.BlockSize))
		bt, err := decodeTableImage(img, recover)
		if err != nil {
			return nil, fmt.Errorf("driver attach: reading block table: %w", err)
		}
		if bt.BlockSectors() != cfg.BlockSize.Sectors() {
			return nil, fmt.Errorf("driver attach: block table block size %d sectors, driver uses %d",
				bt.BlockSectors(), cfg.BlockSize.Sectors())
		}
		d.bt = bt
	}
	return d, nil
}

// tableAllocEntries sizes the fixed on-disk block table allocation at
// the start of the reserved region: room for 16k entries.
const tableAllocEntries = 16384

// tableSectors is the fixed on-disk allocation for the block table.
func tableSectors(bs geom.BlockSize) int {
	return blocktable.EncodedSectors(tableAllocEntries)
}

// slotSectors is the size of one of the two table-write slots inside
// the fixed allocation. Fault-tolerant mode alternates committed table
// writes between the slots so a crash can tear at most the slot being
// written; the other still holds the previous generation intact.
func slotSectors(bs geom.BlockSize) int {
	return tableSectors(bs) / 2
}

// maxTableEntries bounds the number of rearranged blocks to what one
// dual-write slot can hold (8190 for 8 KB blocks) — still more than
// twice the paper's largest configuration (3500 blocks).
var maxTableEntries = blocktable.MaxEntriesIn(slotSectors(geom.Block8K))

// decodeTableImage parses the on-disk table allocation, choosing the
// newest valid copy: each of the two write slots is decoded
// independently and the one with the higher generation wins. Legacy
// full-prefix writes leave slot B zeroed (never valid), so they decode
// through slot A unchanged. recover selects the conservative path that
// marks every entry dirty (Section 4.1.2).
func decodeTableImage(img []byte, recover bool) (*blocktable.Table, error) {
	ss := slotSectors(geom.Block8K) * geom.SectorSize
	a, errA := blocktable.Decode(img[:ss])
	b, errB := blocktable.Decode(img[ss : 2*ss])
	var t *blocktable.Table
	switch {
	case errA == nil && errB == nil:
		t = a
		if b.Gen > a.Gen {
			t = b
		}
	case errA == nil:
		t = a
	case errB == nil:
		t = b
	default:
		return nil, errA
	}
	if recover {
		t.MarkAllDirty()
	}
	return t, nil
}

// TableSectors reports the reserved-area prefix (in sectors) occupied by
// the on-disk block table. Placement policies must not allocate reserved
// slots inside this prefix.
func TableSectors(bs geom.BlockSize) int { return tableSectors(bs) }

// Label returns the decoded disk label.
func (d *Driver) Label() *label.Label { return d.lbl }

// Disk returns the underlying disk model.
func (d *Driver) Disk() *disk.Disk { return d.dsk }

// BlockSize returns the configured file system block size.
func (d *Driver) BlockSize() geom.BlockSize { return d.cfg.BlockSize }

// Rearranged reports whether the attached disk has a reserved region.
func (d *Driver) Rearranged() bool { return d.lbl.Rearranged }

// BlockTableLen returns the number of currently rearranged blocks.
func (d *Driver) BlockTableLen() int {
	if d.bt == nil {
		return 0
	}
	return d.bt.Len()
}

// BlockTable returns a copy of the current block table entries, sorted
// by original address. Incremental rearrangement diffs against it.
func (d *Driver) BlockTable() []blocktable.Entry {
	if d.bt == nil {
		return nil
	}
	return d.bt.Entries()
}

// QueueLen returns the number of requests waiting in the device queue
// (not counting the one being serviced).
func (d *Driver) QueueLen() int { return len(d.queue) }

// ReadBlock issues a read of one file system block: partition-relative
// block number blk on partition part. done fires at completion in
// simulated time.
func (d *Driver) ReadBlock(part int, blk int64, done DoneFunc) {
	d.blockIO(false, part, blk, nil, done)
}

// WriteBlock issues a write of one file system block. data must be one
// block long.
func (d *Driver) WriteBlock(part int, blk int64, data []byte, done DoneFunc) {
	if len(data) != d.cfg.BlockSize.Bytes() {
		d.fail(done, fmt.Errorf("driver: write of %d bytes, block size is %d", len(data), d.cfg.BlockSize.Bytes()))
		return
	}
	d.blockIO(true, part, blk, data, done)
}

// blockIO validates a file system block request and passes it to
// strategy. The file system requests at most one block per call, so a
// request can never be partially rearranged (Section 4.1.2).
func (d *Driver) blockIO(write bool, part int, blk int64, data []byte, done DoneFunc) {
	p, err := d.lbl.Partition(part)
	if err != nil {
		d.fail(done, err)
		return
	}
	bsec := int64(d.cfg.BlockSize.Sectors())
	if blk < 0 || (blk+1)*bsec > p.Size {
		d.fail(done, fmt.Errorf("%w: block %d of partition %d (%d sectors)", ErrBadBlock, blk, part, p.Size))
		return
	}
	if d.sink != nil {
		d.ev = telemetry.Event{
			Kind:   telemetry.KindRequest,
			TimeMS: d.eng.Now(),
			Write:  write,
			Part:   part,
			Block:  blk,
		}
		d.sink.Event(&d.ev)
	}
	vsec := p.Start + blk*bsec
	d.strategy(write, write, vsec, int(bsec), data, done) // a block write is kept
}

// SetSink attaches a telemetry sink to the driver's event stream: one
// KindRequest event per file system block request (partition-relative
// address, before any translation) and one KindSpan event per
// completed device operation. Pass nil to detach; a nil sink costs a
// single comparison per request. The driver reuses one Event value, so
// sinks must copy what they retain.
func (d *Driver) SetSink(s telemetry.Sink) { d.sink = s }

// Counters are lifetime observability counters. Unlike Stats they are
// never cleared by ReadStats, so time-series probes can track
// cumulative progress across measurement windows.
type Counters struct {
	// Requests counts completed file system and raw requests.
	Requests int64
	// Redirected counts requests sent to the reserved region.
	Redirected int64
	// InternalIO counts completed driver-generated operations: block
	// movement reads/writes and block table writes — the cumulative
	// I/O cost of rearrangement.
	InternalIO int64
	// Faults counts device errors reported by the fault injector;
	// Retries counts re-issues of transiently failing operations;
	// Remaps counts bad blocks remapped into spare reserved slots;
	// Unrecovered counts operations that failed after exhausting
	// retries and remapping.
	Faults      int64
	Retries     int64
	Remaps      int64
	Unrecovered int64
	// BackoffMS accumulates the simulated time spent waiting between
	// retry re-issues — how long the retry ladder actually cost, where
	// Retries only says how often it ran.
	BackoffMS float64
}

// Add adds other's counts into c: a volume's counters are its
// members' summed.
func (c *Counters) Add(other Counters) {
	c.Requests += other.Requests
	c.Redirected += other.Redirected
	c.InternalIO += other.InternalIO
	c.Faults += other.Faults
	c.Retries += other.Retries
	c.Remaps += other.Remaps
	c.Unrecovered += other.Unrecovered
	c.BackoffMS += other.BackoffMS
}

// Counters returns the driver's lifetime counters.
func (d *Driver) Counters() Counters { return d.cum }

// driverMetrics are the driver's hot-path histograms, recorded in
// interrupt behind one nil check so an unbound driver pays a single
// comparison per completion.
type driverMetrics struct {
	service  *metrics.Histogram
	queueing *metrics.Histogram
	seek     *metrics.Histogram
	qdepth   *metrics.Histogram
}

// BindMetrics registers the driver's metrics in reg, all carrying the
// given labels (a volume labels each member disk="i"): per-request
// service/queue/seek-time and queue-depth histograms, recorded from the
// moment of binding, plus func-backed counters over the lifetime
// Counters and the disk's cumulative head travel, and gauges of the
// queue, the requests outstanding and the block table's length, all
// resolved when read. Bind after populate so the
// distributions cover only the measured window. Like every driver entry
// point, call it from the goroutine driving the simulation.
func (d *Driver) BindMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	d.mx = &driverMetrics{
		service:  reg.Histogram("driver_service_ms", metrics.HistogramOpts{}, labels...),
		queueing: reg.Histogram("driver_queue_ms", metrics.HistogramOpts{}, labels...),
		seek:     reg.Histogram("driver_seek_ms", metrics.HistogramOpts{}, labels...),
		qdepth:   reg.Histogram("driver_queue_depth", metrics.HistogramOpts{MinExp: -1, MaxExp: 20}, labels...),
	}
	reg.CounterFunc("driver_requests", func() int64 { return d.cum.Requests }, labels...)
	reg.CounterFunc("driver_redirected", func() int64 { return d.cum.Redirected }, labels...)
	reg.CounterFunc("driver_internal_io", func() int64 { return d.cum.InternalIO }, labels...)
	reg.CounterFunc("driver_faults", func() int64 { return d.cum.Faults }, labels...)
	reg.CounterFunc("driver_retries", func() int64 { return d.cum.Retries }, labels...)
	reg.CounterFunc("driver_remaps", func() int64 { return d.cum.Remaps }, labels...)
	reg.CounterFunc("driver_unrecovered", func() int64 { return d.cum.Unrecovered }, labels...)
	reg.GaugeFunc("driver_backoff_ms", func() float64 { return d.cum.BackoffMS }, labels...)
	reg.GaugeFunc("driver_queue_len", func() float64 { return float64(d.QueueLen()) }, labels...)
	reg.GaugeFunc("driver_outstanding", func() float64 { return float64(d.Outstanding()) }, labels...)
	reg.GaugeFunc("driver_block_table_len", func() float64 { return float64(d.BlockTableLen()) }, labels...)
	reg.CounterFunc("driver_seek_cylinders", func() int64 { return d.dsk.SeekCylinders() }, labels...)
}

// Outstanding returns the number of requests in the driver: queued
// plus the one in service.
func (d *Driver) Outstanding() int {
	n := len(d.queue)
	if d.busy {
		n++
	}
	return n
}

// Physio issues a raw-interface request addressed in virtual-disk
// sectors. Large requests are broken into block-sized subrequests so
// that a request can never straddle a rearranged/unrearranged boundary
// (Section 4.1.2); done fires once, after the last subrequest, with the
// concatenated data for reads.
func (d *Driver) Physio(write bool, vsector int64, count int, data []byte, done DoneFunc) {
	if count <= 0 || vsector < 0 || vsector+int64(count) > d.lbl.VirtualSectors() {
		d.fail(done, fmt.Errorf("%w: raw range [%d, %d)", ErrBadBlock, vsector, vsector+int64(count)))
		return
	}
	if write && len(data) != count*geom.SectorSize {
		d.fail(done, fmt.Errorf("driver: raw write of %d sectors with %d bytes", count, len(data)))
		return
	}
	bsec := int64(d.cfg.BlockSize.Sectors())
	type piece struct {
		vsec  int64
		count int
	}
	var pieces []piece
	for s := vsector; s < vsector+int64(count); {
		// Split at block boundaries of the virtual disk.
		next := (s/bsec + 1) * bsec
		if end := vsector + int64(count); next > end {
			next = end
		}
		pieces = append(pieces, piece{vsec: s, count: int(next - s)})
		s = next
	}
	var out []byte
	if !write {
		out = make([]byte, count*geom.SectorSize)
	}
	remaining := len(pieces)
	var firstErr error
	off := 0
	for _, pc := range pieces {
		pc := pc
		pcOff := off
		var wdata []byte
		if write {
			wdata = data[pcOff : pcOff+pc.count*geom.SectorSize]
		}
		d.strategy(write, false, pc.vsec, pc.count, wdata, func(rdata []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if !write && err == nil {
				copy(out[pcOff:], rdata)
			}
			remaining--
			if remaining == 0 && done != nil {
				done(out, firstErr)
			}
		})
		off += pc.count * geom.SectorSize
	}
}

// strategy is the heart of the driver (Section 4.1.2): it maps the
// virtual address to a physical address, redirects through the block
// table, records the request in the monitoring table, and enqueues it.
// keep says whether the disk may keep a write's payload as its pages: a
// block write's is immutable from the call on (BlockDevice.WriteBlock);
// a raw write's is a piece of the caller's buffer, so it is copied.
func (d *Driver) strategy(write, keep bool, vsec int64, count int, data []byte, done DoneFunc) {
	psec := d.lbl.MapVirtual(vsec)

	// Identify the containing block in original physical coordinates;
	// this is the identity used by monitoring and the block table.
	bsec := int64(d.cfg.BlockSize.Sectors())
	blockStart := psec - psec%bsec

	// Requests for a block that is being moved are delayed temporarily
	// (Section 4.1.3) and re-run when the move completes.
	if waiters, ok := d.moving[blockStart]; ok {
		d.moving[blockStart] = append(waiters, &pendingStrategy{
			write: write, keep: keep, vsec: vsec, count: count, data: data, done: done,
		})
		return
	}

	target := psec
	redirected := false
	if d.bt != nil {
		if newStart, ok := d.bt.Lookup(blockStart); ok {
			target = newStart + (psec - blockStart)
			redirected = true
			if write {
				d.bt.MarkDirty(blockStart)
			}
		}
	}
	if redirected {
		d.cum.Redirected++
	}

	d.mon.record(blockStart)
	d.recordArrival(blockStart, write)
	r := d.getReq()
	r.write = write
	r.keep = keep
	r.redirected = redirected
	r.orig = blockStart
	r.sector = target
	r.count = count
	r.data = data
	r.arriveMS = d.eng.Now()
	r.done = done
	d.enqueue(r)
}

// getReq takes a zeroed request record from the free list, or allocates
// one the first times through.
func (d *Driver) getReq() *ioreq {
	if n := len(d.reqFree); n > 0 {
		r := d.reqFree[n-1]
		d.reqFree[n-1] = nil
		d.reqFree = d.reqFree[:n-1]
		return r
	}
	return &ioreq{d: d}
}

// putReq recycles a completed request. Callers must not touch r again;
// every field (including buffer and callback references) is cleared so
// the pool does not pin completed requests' data.
func (d *Driver) putReq(r *ioreq) {
	*r = ioreq{d: d}
	d.reqFree = append(d.reqFree, r)
}

// recordArrival updates the arrival-order (FCFS, unrearranged) seek
// distance distribution: the distances that would have been observed had
// requests been served in arrival order with no block rearrangement
// (Table 3's highlighted rows).
func (d *Driver) recordArrival(origSector int64, write bool) {
	cyl := d.dsk.Geom().CylinderOf(origSector)
	if d.haveFCFSPrev {
		d.stats.side(write).FCFSDist.Add(cyl - d.fcfsCyl)
	}
	d.fcfsCyl = cyl
	d.haveFCFSPrev = true
}

// Dead reports whether the device has suffered a simulated power loss.
// A dead driver fails every request; re-attaching a fresh Driver to the
// disk models the reboot.
func (d *Driver) Dead() bool { return d.dead }

// Remap records one bad-block remapping: requests addressed to the
// block at Orig are serviced by the spare reserved slot at Spare.
type Remap struct {
	Orig, Spare int64
}

// RemapTable returns the bad-block remap table sorted by original
// address — the analogue of an ioctl exposing the remap state to
// diagnostic tools.
func (d *Driver) RemapTable() []Remap {
	out := make([]Remap, 0, len(d.remaps))
	for o, s := range d.remaps {
		out = append(out, Remap{Orig: o, Spare: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Orig < out[j].Orig })
	return out
}

// applyRemap retargets a request whose physical destination block has
// been remapped to a spare. Remaps are block-granular, so only requests
// contained in a single block can follow one; the multi-block table
// write never does (the table's home is fixed).
func (d *Driver) applyRemap(r *ioreq) {
	if len(d.remaps) == 0 {
		return
	}
	bsec := int64(d.cfg.BlockSize.Sectors())
	blockStart := r.sector - r.sector%bsec
	if r.sector+int64(r.count) > blockStart+bsec {
		return
	}
	for {
		spare, ok := d.remaps[blockStart]
		if !ok {
			break
		}
		r.sector = spare + (r.sector - blockStart)
		blockStart = spare
	}
}

// enqueue adds a request to the device queue and starts the device if it
// is idle, mirroring the strategy/start split of the SunOS driver.
func (d *Driver) enqueue(r *ioreq) {
	if d.dead {
		d.fail(r.done, ErrDead)
		return
	}
	r.d = d
	d.applyRemap(r)
	r.qdepth = d.Outstanding()
	d.queue = append(d.queue, r)
	d.qcyl = append(d.qcyl, int32(d.dsk.Geom().CylinderOf(r.sector)))
	if !d.busy {
		d.start()
	}
}

// start dispatches the next request chosen by the scheduling policy.
func (d *Driver) start() {
	if len(d.queue) == 0 || d.dead {
		d.busy = false
		return
	}
	d.busy = true
	idx := d.cfg.Sched.Next(d.dsk.HeadCylinder(), d.qcyl)
	r := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	d.qcyl = append(d.qcyl[:idx], d.qcyl[idx+1:]...)
	r.dispatchMS = d.eng.Now()
	d.issue(r)
}

// issue performs one service attempt of a dispatched request and
// schedules its completion interrupt. Retries re-enter here with the
// device still busy, so a request being retried blocks the queue just
// as a device held by its own error recovery would; its service time
// accumulates the backoff delays.
func (d *Driver) issue(r *ioreq) {
	d.inj.SetPhase(r.phase)
	now := d.eng.Now()
	var t disk.Timing
	var rdata []byte
	var err error
	switch {
	case r.write && r.keep:
		t, err = d.dsk.WriteOwned(now, r.sector, r.count, r.data)
	case r.write:
		t, err = d.dsk.Write(now, r.sector, r.count, r.data)
	default:
		rdata, t, err = d.dsk.Read(now, r.sector, r.count)
	}
	if err != nil {
		d.handleError(r, err)
		return
	}
	r.rdata = rdata
	r.timing = t
	d.eng.AfterCall(t.TotalMS(), r)
}

// handleError classifies a device error and drives recovery: transient
// errors are retried with exponential backoff, permanent media errors
// on writes are remapped to a spare reserved slot, and a simulated
// power loss kills the device, failing everything in flight and queued.
// Errors that are not injected faults (address validation) fail the
// request immediately and leave the device usable.
func (d *Driver) handleError(r *ioreq, err error) {
	var fe *fault.Error
	if !errors.As(err, &fe) {
		d.eng.After(0, func() {
			if r.done != nil {
				r.done(nil, err)
			}
			d.start()
		})
		return
	}
	d.cum.Faults++
	switch fe.Class {
	case fault.Crash:
		d.dead = true
		d.emitFault(r, fe, "crash")
		failed := append([]*ioreq{r}, d.queue...)
		d.queue, d.qcyl = nil, nil
		d.busy = false
		d.eng.After(0, func() {
			for _, q := range failed {
				if q.done != nil {
					q.done(nil, err)
				}
			}
		})
	case fault.Transient:
		if r.attempt < maxRetries {
			r.attempt++
			d.cum.Retries++
			d.emitFault(r, fe, "retry")
			backoff := retryBaseMS * float64(int64(1)<<(r.attempt-1))
			d.cum.BackoffMS += backoff
			d.eng.After(backoff, func() { d.issue(r) })
			return
		}
		d.unrecoverable(r, fe, err)
	default: // fault.Media
		if d.tryRemap(r, fe) {
			return
		}
		d.unrecoverable(r, fe, err)
	}
}

// tryRemap moves a write that hit a permanent media error to a freshly
// allocated spare block in the reserved region and re-issues it there.
// Reads cannot be remapped (the data is gone), nor can operations that
// span more than one block.
func (d *Driver) tryRemap(r *ioreq, fe *fault.Error) bool {
	if !r.write || d.bt == nil {
		return false
	}
	bsec := int64(d.cfg.BlockSize.Sectors())
	blockStart := r.sector - r.sector%bsec
	if r.sector+int64(r.count) > blockStart+bsec {
		return false
	}
	spare := d.allocSpare()
	if spare < 0 {
		return false
	}
	d.remaps[blockStart] = spare
	d.spares[spare] = true
	d.cum.Remaps++
	d.emitFault(r, fe, "remap")
	r.sector = spare + (r.sector - blockStart)
	d.issue(r)
	return true
}

// allocSpare returns the next unused block-aligned spare slot,
// allocated downward from the top of the reserved region so spares stay
// clear of the organ-pipe slots the arranger fills from the middle out.
// It returns -1 when the region is exhausted.
func (d *Driver) allocSpare() int64 {
	bsec := int64(d.cfg.BlockSize.Sectors())
	tableEnd := d.tableAt + int64(tableSectors(d.cfg.BlockSize))
	if d.spareCursor == 0 {
		resEnd := d.lbl.ReservedStart + d.lbl.ReservedLen
		d.spareCursor = (resEnd - bsec) / bsec * bsec
	}
	for s := d.spareCursor; s >= tableEnd; s -= bsec {
		d.spareCursor = s - bsec
		if d.spares[s] {
			continue
		}
		if _, ok := d.bt.ReverseLookup(s); ok {
			continue
		}
		if _, ok := d.remaps[s]; ok {
			continue
		}
		return s
	}
	return -1
}

// unrecoverable propagates a fault that recovery could not mask.
func (d *Driver) unrecoverable(r *ioreq, fe *fault.Error, err error) {
	d.cum.Unrecovered++
	d.emitFault(r, fe, "fail")
	d.eng.After(0, func() {
		if r.done != nil {
			r.done(nil, err)
		}
		d.start()
	})
}

// emitFault reports one fault-handling action to the telemetry sink.
func (d *Driver) emitFault(r *ioreq, fe *fault.Error, action string) {
	if d.sink == nil {
		return
	}
	d.ev = telemetry.Event{
		Kind:    telemetry.KindFault,
		TimeMS:  d.eng.Now(),
		Write:   r.write,
		Sector:  r.sector,
		Count:   r.count,
		Class:   fe.Class.String(),
		Action:  action,
		Attempt: r.attempt,
	}
	d.sink.Event(&d.ev)
}

// interrupt is the completion handler: it records statistics, completes
// the request, and starts the next queued operation.
func (d *Driver) interrupt(r *ioreq, rdata []byte, t disk.Timing, startMS float64) {
	if !r.internal {
		now := d.eng.Now()
		side := d.stats.side(r.write)
		side.SchedDist.Add(t.SeekDist)
		side.RotMS += t.RotMS
		side.TransferMS += t.TransferMS
		side.Service.Record(now - startMS)
		side.QueueMS += startMS - r.arriveMS
		if mx := d.mx; mx != nil {
			mx.service.Record(now - startMS)
			mx.queueing.Record(startMS - r.arriveMS)
			mx.seek.Record(t.SeekMS)
			mx.qdepth.Record(float64(r.qdepth))
		}
		d.cum.Requests++
	} else {
		d.cum.InternalIO++
	}
	if d.sink != nil {
		d.ev = telemetry.Event{
			Kind:       telemetry.KindSpan,
			Write:      r.write,
			Internal:   r.internal,
			Redirected: r.redirected,
			BufferHit:  t.BufferHit,
			Orig:       r.orig,
			Sector:     r.sector,
			Count:      r.count,
			QueueDepth: r.qdepth,
			SeekDist:   t.SeekDist,
			ArriveMS:   r.arriveMS,
			DispatchMS: startMS,
			SeekMS:     t.SeekMS,
			RotMS:      t.RotMS,
			TransferMS: t.TransferMS,
			CompleteMS: d.eng.Now(),
		}
		d.sink.Event(&d.ev)
	}
	if r.done != nil {
		if r.write {
			r.done(nil, nil)
		} else {
			r.done(rdata, nil)
		}
	}
	d.start()
	// The request is fully retired (error paths never reach here);
	// recycle the record.
	d.putReq(r)
}

// fail delivers an immediate asynchronous error.
func (d *Driver) fail(done DoneFunc, err error) {
	d.eng.After(0, func() {
		if done != nil {
			done(nil, err)
		}
	})
}
