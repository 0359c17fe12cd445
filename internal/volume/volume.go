// Package volume implements a logical volume manager over N simulated
// disks. Each member is a full single-disk stack — its own disk model,
// SCAN queue, block table, fault injector, and (optionally) adaptive
// rearrangement — and the volume composes them behind the same
// driver.BlockDevice interface a single driver presents, so the file
// system, buffer cache, and workloads run unchanged on one spindle or
// eight.
//
// Five layouts are supported:
//
//   - concat: members are appended; logical block b lives on the first
//     member whose cumulative size exceeds b.
//   - stripe: logical blocks are distributed round-robin in stripe
//     units of a fixed number of blocks, RAID-0 style.
//   - mirror: every member holds a full replica, RAID-1 style. Writes
//     fan out to all live members; reads pick one live member by the
//     configured balancing policy and fail over to the others on error.
//   - raid5: rotating single parity; every stripe row dedicates one
//     member block to the XOR of the others, so any one member can die
//     (or lose a sector) and the volume keeps serving, reconstructing
//     on the fly. See parity.go.
//   - raid6: rotating double parity (P + Q over GF(2^8)); any two
//     simultaneous losses are survivable.
//
// The parity layouts also take hot spares (Options.Spare), rebuilt
// onto in the background under a foreground-yielding throttle, and a
// periodic scrub (Options.ScrubIntervalMS + StartScrub) that repairs
// latent sector errors before a second failure can compound them.
//
// Layout routing and mirror read balancing are pluggable seams — see
// the placement and Balancer interfaces in balance.go.
//
// A volume advances in a single simulated timeline and the
// fan-out/fan-in of mirror requests is fully deterministic: member
// completions are ordered by simulated (time, seq), the engine's fixed
// event ordering. All members share one event engine, so runs of the
// same volume under any number of harness jobs yield byte-identical
// output.
//
// Degraded operation: a member whose driver has died (fault plan crash)
// is skipped by mirror reads and writes; the volume request succeeds as
// long as one replica remains. On concat and stripe there is no
// redundancy, so a dead member fails the volume request with the
// member's ErrDead.
package volume

import (
	"context"
	"fmt"

	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Layout selects how logical blocks map onto the members.
type Layout string

const (
	// Concat appends the members into one address space.
	Concat Layout = "concat"
	// Stripe distributes stripe units round-robin across the members.
	Stripe Layout = "stripe"
	// Mirror replicates every block on every member.
	Mirror Layout = "mirror"
	// RAID5 stripes with one rotating XOR parity block per stripe row.
	RAID5 Layout = "raid5"
	// RAID6 stripes with rotating P (XOR) and Q (GF(2^8)) parity.
	RAID6 Layout = "raid6"
)

// ReadPolicy selects how a mirror balances reads across live members.
type ReadPolicy string

const (
	// RoundRobin rotates reads across live members in index order.
	RoundRobin ReadPolicy = "round-robin"
	// ShortestQueue sends each read to the live member with the fewest
	// requests queued or in service, breaking ties by member index.
	ShortestQueue ReadPolicy = "shortest-queue"
)

// DefaultStripeUnit is the stripe unit, in file system blocks, when
// Options.StripeUnit is zero: 16 blocks (128 KB of 8 KB blocks).
const DefaultStripeUnit = 16

// DefaultRebuildRate is the rebuild/scrub pace ceiling, in member
// blocks per simulated second, when Options.RebuildRate is zero.
const DefaultRebuildRate = 200

// Options configures a volume. What no volume varies is not here: every
// member is built with rig.New's defaults, 8 KB blocks and a SCAN queue,
// and mirror reads are balanced by one of the two ReadPolicy values.
type Options struct {
	// Ctx, when non-nil, cancels the shared engine once done.
	Ctx context.Context
	// Layout selects concat, stripe, mirror, raid5, or raid6; the zero
	// value selects concat.
	Layout Layout
	// Disks is the member count, excluding spares; zero selects 1.
	// Mirror needs at least 2, raid5 at least 3, raid6 at least 4.
	Disks int
	// StripeUnit is the stripe unit in blocks (stripe and parity
	// layouts); zero selects DefaultStripeUnit.
	StripeUnit int
	// ReadPolicy balances mirror reads; the zero value selects
	// round-robin.
	ReadPolicy ReadPolicy
	// Spare adds this many hot-spare members (parity layouts only).
	// Spares idle until a member dies, then receive its reconstructed
	// contents block by block.
	Spare int
	// RebuildRate caps background rebuild and scrub at this many member
	// blocks per simulated second when the array is otherwise idle;
	// zero selects DefaultRebuildRate. The effective pace backs off
	// further as foreground queue depth grows.
	RebuildRate float64
	// ScrubIntervalMS, when positive on a parity layout, sets the
	// period of the background scrub pass; StartScrub arms it.
	ScrubIntervalMS float64
	// Disk selects the member drive model; the zero value selects the
	// Toshiba MK156F. All members use the same model.
	Disk disk.Model
	// ReservedCyls hides this many middle cylinders of every member as
	// its reserved region, enabling per-member adaptive rearrangement.
	ReservedCyls int
	// RequestTableSize overrides each member driver's monitoring table.
	RequestTableSize int
	// Faults lists per-member fault plans by member index (spares
	// follow the data members, at indices Disks..Disks+Spare-1); a
	// short list (or nil entries) leaves the remaining members
	// fault-free.
	Faults []*fault.Plan
	// Telemetry, when non-nil and capturing spans, receives every
	// member's request lifecycle stream, tagged with the member's disk
	// index via telemetry.TagDisk.
	Telemetry *telemetry.Collector
}

// Stats are volume-level request statistics, accumulated since the last
// ResetStats.
type Stats struct {
	// Requests, Reads and Writes count volume-level block requests.
	Requests int64
	Reads    int64
	Writes   int64
	// RespMSSum accumulates volume-level response times (request entry
	// to fan-in completion) in simulated milliseconds; RespMSSum /
	// Requests is the mean response time.
	RespMSSum float64
	// Errors counts volume requests that completed with an error.
	Errors int64
	// Degraded counts redundant-layout requests served with at least
	// one relevant member dead or unreadable (mirror: any member;
	// parity: a member of the request's stripe row).
	Degraded int64
	// PerDisk counts member operations issued, by member index
	// (spares included, after the data members). A mirror write
	// increments every live member's slot.
	PerDisk []int64
}

// Volume is a logical volume over member rigs. Like the rest of the
// stack it is event-driven and single-threaded on its engine.
type Volume struct {
	// Eng is the engine every member shares; the file system, cache,
	// workloads and rearrangers run on it too.
	Eng *sim.Engine
	// Members are the per-disk stacks, in disk-index order, hot spares
	// last. Callers may attach rearrangers or read per-member
	// counters, but must not issue raw I/O that bypasses the volume's
	// address map.
	Members []*rig.Rig

	layout Layout
	unit   int64
	policy ReadPolicy
	bs     geom.BlockSize
	lbl    *label.Label
	ctx    context.Context

	blocks int64   // logical volume size in blocks
	sizes  []int64 // usable blocks per member under this layout
	cum    []int64 // concat: cumulative start block per member

	// devs presents the members through the Device seam; place routes
	// requests for the layout; balancer orders redundant reads; ra is
	// the parity machinery, nil outside raid5/raid6.
	devs     []Device
	place    placement
	balancer Balancer
	ra       *raid

	// free is the vreq pool; targets is the mirror write fan-out
	// scratch.
	free    *vreq
	targets []int

	stats Stats
	// cumDegraded counts degraded mirror requests over the volume's
	// lifetime, unaffected by ResetStats — the feed for the
	// volume_degraded metric.
	cumDegraded int64
	// mxResp, when non-nil, receives one volume-level response time
	// per completed request. Bound by BindMetrics.
	mxResp *metrics.Histogram
}

// Volume is a BlockDevice: fs and cache mount it like a single disk.
var _ driver.BlockDevice = (*Volume)(nil)

// New builds a volume: one rig per member on a shared engine, plus the
// logical address map and a synthetic label describing the volume's
// single partition.
func New(opts Options) (*Volume, error) {
	if opts.Disks <= 0 {
		opts.Disks = 1
	}
	if opts.Layout == "" {
		opts.Layout = Concat
	}
	switch opts.Layout {
	case Concat, Stripe, Mirror, RAID5, RAID6:
	default:
		return nil, fmt.Errorf("volume: unknown layout %q", opts.Layout)
	}
	if opts.Layout == Mirror && opts.Disks < 2 {
		return nil, fmt.Errorf("volume: mirror needs at least 2 disks, got %d", opts.Disks)
	}
	if opts.Layout == RAID5 && opts.Disks < 3 {
		return nil, fmt.Errorf("volume: raid5 needs at least 3 disks, got %d", opts.Disks)
	}
	if opts.Layout == RAID6 && opts.Disks < 4 {
		return nil, fmt.Errorf("volume: raid6 needs at least 4 disks, got %d", opts.Disks)
	}
	parity := opts.Layout == RAID5 || opts.Layout == RAID6
	if opts.Spare < 0 {
		return nil, fmt.Errorf("volume: negative spare count %d", opts.Spare)
	}
	if opts.Spare > 0 && !parity {
		return nil, fmt.Errorf("volume: layout %q takes no hot spares", opts.Layout)
	}
	if opts.RebuildRate < 0 {
		return nil, fmt.Errorf("volume: negative rebuild rate %g", opts.RebuildRate)
	}
	if opts.ScrubIntervalMS > 0 && !parity {
		return nil, fmt.Errorf("volume: layout %q has no parity to scrub", opts.Layout)
	}
	if opts.StripeUnit <= 0 {
		opts.StripeUnit = DefaultStripeUnit
	}
	if opts.ReadPolicy == "" {
		opts.ReadPolicy = RoundRobin
	}
	switch opts.ReadPolicy {
	case RoundRobin, ShortestQueue:
	default:
		return nil, fmt.Errorf("volume: unknown read policy %q", opts.ReadPolicy)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}

	eng := sim.NewEngine()
	if ctx := opts.Ctx; ctx != nil {
		eng.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	spans := opts.Telemetry.SpansEnabled()

	v := &Volume{
		Eng:    eng,
		layout: opts.Layout,
		unit:   int64(opts.StripeUnit),
		policy: opts.ReadPolicy,
		ctx:    opts.Ctx,
	}
	nrigs := opts.Disks + opts.Spare
	v.stats.PerDisk = make([]int64, nrigs)
	for i := 0; i < nrigs; i++ {
		var plan *fault.Plan
		if i < len(opts.Faults) {
			plan = opts.Faults[i]
		}
		m, err := rig.New(rig.Options{
			Eng:              eng,
			Disk:             opts.Disk,
			ReservedCyls:     opts.ReservedCyls,
			RequestTableSize: opts.RequestTableSize,
			Fault:            plan,
		})
		if err != nil {
			v.Close()
			return nil, fmt.Errorf("volume: member %d: %w", i, err)
		}
		if spans {
			m.Driver.SetSink(telemetry.TagDisk(i, opts.Telemetry))
		}
		v.Members = append(v.Members, m)
		v.devs = append(v.devs, m.Driver)
	}
	v.bs = v.Members[0].Driver.BlockSize()

	// The usable size per member and the logical size follow from the
	// layout. Members are identical models, but sizing from the actual
	// partitions keeps the map correct if that ever changes.
	min := v.Members[0].PartitionBlocks(0)
	for _, m := range v.Members[1:] {
		if n := m.PartitionBlocks(0); n < min {
			min = n
		}
	}
	switch v.layout {
	case Concat:
		var total int64
		for _, m := range v.Members {
			n := m.PartitionBlocks(0)
			v.cum = append(v.cum, total)
			v.sizes = append(v.sizes, n)
			total += n
		}
		v.blocks = total
	case Stripe:
		per := min / v.unit * v.unit
		if per == 0 {
			return nil, fmt.Errorf("volume: stripe unit %d larger than member (%d blocks)", v.unit, min)
		}
		for range v.Members {
			v.sizes = append(v.sizes, per)
		}
		v.blocks = per * int64(len(v.Members))
	case Mirror:
		for range v.Members {
			v.sizes = append(v.sizes, min)
		}
		v.blocks = min
	case RAID5, RAID6:
		per := min / v.unit * v.unit
		if per == 0 {
			return nil, fmt.Errorf("volume: stripe unit %d larger than member (%d blocks)", v.unit, min)
		}
		npar := 1
		if v.layout == RAID6 {
			npar = 2
		}
		for range v.Members {
			v.sizes = append(v.sizes, per)
		}
		v.blocks = per * int64(opts.Disks-npar)
		ra := &raid{
			v:            v,
			dbl:          v.layout == RAID6,
			npar:         npar,
			nslots:       opts.Disks,
			ndata:        opts.Disks - npar,
			unit:         v.unit,
			per:          per,
			rate:         opts.RebuildRate,
			scrubEveryMS: opts.ScrubIntervalMS,
			locks:        make(map[int64]*rowLock),
			slotRig:      make([]int, opts.Disks),
		}
		if ra.rate == 0 {
			ra.rate = DefaultRebuildRate
		}
		for s := range ra.slotRig {
			ra.slotRig[s] = s
		}
		for i := 0; i < opts.Spare; i++ {
			ra.spareRigs = append(ra.spareRigs, opts.Disks+i)
		}
		ra.copyFn = ra.copyStep
		v.ra = ra
	}

	v.balancer = newBalancer(v.policy)
	switch v.layout {
	case Mirror:
		v.place = mirrored{v}
	case RAID5, RAID6:
		v.place = v.ra
	default:
		v.place = linear{v}
	}

	lbl, err := v.makeLabel()
	if err != nil {
		v.Close()
		return nil, err
	}
	v.lbl = lbl
	return v, nil
}

// Run drives the simulation until the engine is quiescent.
func (v *Volume) Run() { v.Eng.Run() }

// RunUntil drives the simulation through time t inclusive, then
// advances the clock to t, like sim.Engine.RunUntil.
func (v *Volume) RunUntil(t float64) { v.Eng.RunUntil(t) }

// Now returns the engine's current simulated time.
func (v *Volume) Now() float64 { return v.Eng.Now() }

// Dispatched returns the number of events the volume's engine has fired.
func (v *Volume) Dispatched() int64 { return v.Eng.Dispatched() }

// Close disarms the periodic scrub so its ticker stops re-arming on the
// engine. Close is idempotent.
func (v *Volume) Close() {
	if v.ra != nil && v.ra.scrubCancel != nil {
		v.ra.scrubCancel()
		v.ra.scrubCancel = nil
	}
}

// makeLabel builds the synthetic in-memory label presented to the file
// system: the member geometry widened (or narrowed) to as many
// cylinders as the logical space needs, with one partition covering
// every logical block. It is never written to any disk — each member
// keeps its own on-disk label — it only tells the file system how big
// the device is and how long a "cylinder" is for allocation locality.
func (v *Volume) makeLabel() (*label.Label, error) {
	g := v.Members[0].Label.VirtualGeom()
	bsec := int64(v.bs.Sectors())
	sectors := v.blocks * bsec
	spc := int64(g.SectorsPerCyl())
	cyls := (sectors + spc - 1) / spc
	g.Cylinders = int(cyls)
	lbl := label.New(fmt.Sprintf("vol-%s-%d", v.layout, len(v.Members)), g)
	if _, err := lbl.AddPartition(0, sectors, label.TagFS); err != nil {
		return nil, err
	}
	return lbl, nil
}

// BlockSize implements driver.BlockDevice.
func (v *Volume) BlockSize() geom.BlockSize { return v.bs }

// Label implements driver.BlockDevice.
func (v *Volume) Label() *label.Label { return v.lbl }

// Blocks returns the logical volume size in blocks.
func (v *Volume) Blocks() int64 { return v.blocks }

// Layout returns the volume's layout.
func (v *Volume) Layout() Layout { return v.layout }

// DeadMembers returns how many members have died.
func (v *Volume) DeadMembers() int {
	var n int
	for _, m := range v.Members {
		if m.Driver.Dead() {
			n++
		}
	}
	return n
}

// RAID returns the parity layout's lifetime counters; the zero value
// on non-parity layouts.
func (v *Volume) RAID() RAIDStats {
	if v.ra == nil {
		return RAIDStats{}
	}
	return v.ra.cum
}

// Spares returns how many hot spares remain undrafted.
func (v *Volume) Spares() int {
	if v.ra == nil {
		return 0
	}
	return len(v.ra.spareRigs)
}

// Rebuilding reports whether a spare rebuild is in progress.
func (v *Volume) Rebuilding() bool { return v.ra != nil && v.ra.rebuild != nil }

// Err returns the volume's cancellation cause, as rig.Err does.
func (v *Volume) Err() error {
	if v.ctx == nil {
		return nil
	}
	return v.ctx.Err()
}

// Stats returns a snapshot of the volume-level statistics.
func (v *Volume) Stats() Stats {
	s := v.stats
	s.PerDisk = append([]int64(nil), v.stats.PerDisk...)
	return s
}

// BindMetrics registers the volume-level instruments in reg: the
// response-time distribution (request entry to fan-in completion, one
// observation per request from the moment of binding), the lifetime
// count of degraded mirror requests, and the current number of dead
// members. Per-member driver metrics are bound separately on each
// member.
func (v *Volume) BindMetrics(reg *metrics.Registry) {
	v.mxResp = reg.Histogram("volume_resp_ms", metrics.HistogramOpts{})
	reg.CounterFunc("volume_degraded", func() int64 { return v.cumDegraded })
	reg.GaugeFunc("volume_dead_members", func() float64 { return float64(v.DeadMembers()) })
	if ra := v.ra; ra != nil {
		reg.CounterFunc("volume_degraded_reads", func() int64 { return ra.cum.DegradedReads })
		reg.CounterFunc("volume_parity_recomputes", func() int64 { return ra.cum.ParityRecomputes })
		reg.CounterFunc("volume_rebuilt_blocks", func() int64 { return ra.cum.RebuiltBlocks })
		reg.CounterFunc("volume_scrub_repairs", func() int64 { return ra.cum.ScrubRepairs })
		reg.GaugeFunc("volume_rebuild_progress", ra.rebuildProgress)
	}
}

// ResetStats clears the volume-level statistics (member drivers keep
// their own counters).
func (v *Volume) ResetStats() {
	per := v.stats.PerDisk
	for i := range per {
		per[i] = 0
	}
	v.stats = Stats{PerDisk: per}
}

// locate maps a logical block to (member index, member-relative block)
// for the concat and stripe layouts.
func (v *Volume) locate(blk int64) (int, int64) {
	switch v.layout {
	case Stripe:
		su := blk / v.unit
		n := int64(len(v.Members))
		return int(su % n), (su/n)*v.unit + blk%v.unit
	default: // Concat
		i := len(v.cum) - 1
		for i > 0 && blk < v.cum[i] {
			i--
		}
		return i, blk - v.cum[i]
	}
}

// check validates the partition and block of a volume request.
func (v *Volume) check(part int, blk int64) error {
	if part != 0 {
		_, err := v.lbl.Partition(part)
		if err == nil {
			err = fmt.Errorf("volume: no partition %d", part)
		}
		return err
	}
	if blk < 0 || blk >= v.blocks {
		return fmt.Errorf("%w: block %d of volume (%d blocks)", driver.ErrBadBlock, blk, v.blocks)
	}
	return nil
}

// fail reports an error asynchronously, preserving the rule that
// completion callbacks never run inside the issuing call.
func (v *Volume) fail(done driver.DoneFunc, err error) {
	v.stats.Errors++
	v.Eng.After(0, func() {
		if done != nil {
			done(nil, err)
		}
	})
}

// vreq is the volume's pooled per-request record: response-time
// accounting, mirror failover and fan-in state, and the completion
// callbacks handed to member drivers, prebuilt once per record so a
// steady-state volume request allocates nothing at the volume layer
// (the fan-out closures used to dominate the allocation profile of
// volume-scale runs).
type vreq struct {
	v    *Volume
	next *vreq

	start float64
	done  driver.DoneFunc
	blk   int64 // mirror read: the member-relative (= logical) block

	order []int // mirror read: failover order; backing array reused
	k     int   // mirror read: index in order of the attempt in flight

	pending  int // mirror write: outstanding member writes
	wrote    int // mirror write: successful member writes
	firstErr error

	finishCB driver.DoneFunc // account, recycle, run the caller's done
	readCB   driver.DoneFunc // mirror read fan-in with failover
	writeCB  driver.DoneFunc // mirror write fan-in (any-replica success)
}

// getReq pops a pooled request record, building one — with its
// reusable completion closures — on first use.
func (v *Volume) getReq() *vreq {
	r := v.free
	if r == nil {
		r = &vreq{v: v}
		r.finishCB = func(data []byte, err error) {
			vol := r.v
			resp := vol.Eng.Now() - r.start
			vol.stats.RespMSSum += resp
			if vol.mxResp != nil {
				vol.mxResp.Record(resp)
			}
			if err != nil {
				vol.stats.Errors++
			}
			done := r.done
			vol.putReq(r)
			if done != nil {
				done(data, err)
			}
		}
		r.readCB = func(data []byte, err error) {
			if err != nil && r.k+1 < len(r.order) {
				// Fail over to the next replica; the dead or erroring
				// member is out of rotation once Dead() reports it.
				vol := r.v
				vol.stats.Degraded++
				vol.cumDegraded++
				r.k++
				i := r.order[r.k]
				vol.stats.PerDisk[i]++
				vol.Members[i].Driver.ReadBlock(0, r.blk, r.readCB)
				return
			}
			r.finishCB(data, err)
		}
		r.writeCB = func(_ []byte, err error) {
			if err == nil {
				r.wrote++
			} else if r.firstErr == nil {
				r.firstErr = err
			}
			r.pending--
			if r.pending > 0 {
				return
			}
			if r.wrote > 0 {
				r.finishCB(nil, nil)
			} else {
				r.finishCB(nil, r.firstErr)
			}
		}
		return r
	}
	v.free = r.next
	r.next = nil
	return r
}

// putReq recycles a finished record. The caller's done reference is
// cleared so the pool does not pin callback closures; the order
// backing array survives for reuse.
func (v *Volume) putReq(r *vreq) {
	r.done, r.firstErr = nil, nil
	r.order = r.order[:0]
	r.start, r.blk = 0, 0
	r.k, r.pending, r.wrote = 0, 0, 0
	r.next = v.free
	v.free = r
}

// ReadBlock implements driver.BlockDevice: it reads one logical block
// of the volume. done fires at fan-in completion in simulated time.
func (v *Volume) ReadBlock(part int, blk int64, done driver.DoneFunc) {
	if err := v.check(part, blk); err != nil {
		v.fail(done, err)
		return
	}
	v.stats.Requests++
	v.stats.Reads++
	v.place.read(blk, done)
}

// appendReadOrder appends the member indices a balanced read should
// try, best candidate first, per the volume's Balancer. Only live
// members appear. The caller passes a reused backing slice, so the
// hot path allocates nothing.
func (v *Volume) appendReadOrder(order []int) []int {
	return v.balancer.Order(v, order)
}

// WriteBlock implements driver.BlockDevice: it writes one logical block
// of the volume. done fires at fan-in completion; redundant layouts
// succeed as long as enough members took the write to keep the block
// durable (mirror: any replica; parity: failures within the parity
// budget).
func (v *Volume) WriteBlock(part int, blk int64, data []byte, done driver.DoneFunc) {
	if err := v.check(part, blk); err != nil {
		v.fail(done, err)
		return
	}
	if len(data) != v.bs.Bytes() {
		v.fail(done, fmt.Errorf("volume: write of %d bytes, block size is %d", len(data), v.bs.Bytes()))
		return
	}
	v.stats.Requests++
	v.stats.Writes++
	v.place.write(blk, data, done)
}
