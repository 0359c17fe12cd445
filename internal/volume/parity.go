package volume

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/fault"
)

// This file is the parity placement: rotating-parity RAID-5 (one XOR
// parity block per stripe row) and double-parity RAID-6 (P = XOR,
// Q = the GF(2^8) syndrome from gf.go). The address space is carved
// into stripe rows of Options.StripeUnit blocks; row r keeps its P
// block on slot nslots-1-(r mod nslots) and, on RAID-6, Q on the next
// slot around the ring, so parity traffic rotates over every member
// the way the classic left-symmetric layouts do. "Slot" is a logical
// member position; slotRig maps slots to rig indices so a completed
// rebuild can splice the hot spare in without renumbering rows.
//
// Write paths:
//
//   - read-modify-write, when the target and every parity slot are
//     alive: read old data + old parity, fold the data delta into each
//     parity (the classic 4-I/O small write, 6 on RAID-6);
//   - reconstruct-write otherwise: read the surviving row, solve for
//     any unreadable columns, substitute the new data, recompute the
//     surviving parities. A write succeeds while the row's failures
//     stay within the parity budget and at least one member accepted
//     its block.
//
// Reads go straight to the data slot; on a dead member or a latent
// sector error they fall back to a row-locked reconstruction. Every
// row-mutating path (either write form, reconstruction reads, rebuild
// copies, scrub steps) serializes on a per-row lock so no request can
// observe a torn data/parity pair, and every row access — direct,
// recon, RMW, row-write, rebuild and scrub — is one pooled rreq record
// stepping through the modes below.
type raid struct {
	v            *Volume
	dbl          bool // RAID-6: maintain the Q syndrome too
	npar         int  // parity blocks per row: 1 or 2
	nslots       int  // row width: every non-spare member
	ndata        int  // data columns per row: nslots - npar
	unit         int64
	per          int64 // usable blocks per member
	rate         float64
	scrubEveryMS float64

	// slotRig maps row slots to rig indices (identity until a rebuild
	// completes); spareRigs lists unassigned hot-spare rigs.
	slotRig   []int
	spareRigs []int

	freeReq *rreq
	locks   map[int64]*rowLock
	rowFree *rowLock

	// free holds block-size scratch buffers for parity math that never
	// leaves the volume (see scratch); a buffer that does leave is
	// handed off and never comes back.
	free [][]byte

	// copyFn and scrubFn are the prebuilt next-step callbacks of the
	// rebuild and scrub chains; scrubMB is the scrub pass's cursor.
	rebuild     *rebuildState
	copyFn      func()
	scrubFn     func()
	scrubCancel func()
	scrubbing   bool
	scrubMB     int64

	cum RAIDStats
}

// RAIDStats are the parity layout's lifetime counters, unaffected by
// ResetStats (rebuild and scrub span measurement windows).
type RAIDStats struct {
	// DegradedReads counts reads served by reconstructing the block
	// from survivors + parity; ParityRecomputes counts foreground
	// writes that computed fresh parity.
	DegradedReads    int64
	ParityRecomputes int64
	// RebuildsStarted/Done count spare rebuilds; RebuiltBlocks is the
	// total member blocks written onto spares; RebuildMS accumulates
	// completed rebuilds' durations in simulated milliseconds.
	RebuildsStarted int64
	RebuildsDone    int64
	RebuiltBlocks   int64
	RebuildMS       float64
	// ScrubPasses counts whole-volume scrub sweeps started;
	// ScrubRepairs counts blocks a scrub rewrote (latent sector errors
	// reconstructed, stale parity recomputed).
	ScrubPasses  int64
	ScrubRepairs int64
	// Unrecoverable counts requests and rebuild copies that found a
	// stripe row missing more members than parity covers.
	Unrecoverable int64
}

// request modes: which state the row machinery is in when member
// completions fan back in. The last two are background steps, set up
// from a member block rather than a logical one: they have no data
// slot and no caller, and they finish without the volume's
// response-time accounting.
const (
	mDirect   = iota + 1 // healthy read, no lock
	mRecon               // read via row reconstruction (locked)
	mRMW                 // small-write: old data + parity reads in flight
	mRowWrite            // reconstruct-write: row reads in flight
	mRebuild             // rebuild copy: the row's survivors in flight
	mScrub               // scrub step: every live slot in flight
)

// rowLock serializes the mutating paths of one stripe row; waiters
// run FIFO, preserving issue order. Lock records are pooled and the
// map entry exists only while the row is held, so an idle volume
// carries no per-row state.
type rowLock struct {
	waiters []func()
	next    *rowLock
}

func (ra *raid) lock(row int64, fn func()) {
	if l, ok := ra.locks[row]; ok {
		l.waiters = append(l.waiters, fn)
		return
	}
	l := ra.rowFree
	if l == nil {
		l = &rowLock{}
	} else {
		ra.rowFree = l.next
		l.next = nil
	}
	ra.locks[row] = l
	fn()
}

func (ra *raid) unlock(row int64) {
	l := ra.locks[row]
	if l == nil {
		return
	}
	if len(l.waiters) > 0 {
		fn := l.waiters[0]
		copy(l.waiters, l.waiters[1:])
		l.waiters[len(l.waiters)-1] = nil
		l.waiters = l.waiters[:len(l.waiters)-1]
		fn()
		return
	}
	delete(ra.locks, row)
	l.next = ra.rowFree
	ra.rowFree = l
}

// addr splits a logical block into (stripe row, data column, member
// block): consecutive stripe units walk the data columns of a row,
// then the rows.
func (ra *raid) addr(blk int64) (row int64, col int, mb int64) {
	u := blk / ra.unit
	row = u / int64(ra.ndata)
	col = int(u % int64(ra.ndata))
	mb = row*ra.unit + blk%ra.unit
	return
}

// parSlots are row r's parity positions on the slot ring: P on
// nslots-1-(r mod nslots) and, on RAID-6, Q on the next slot (-1 on
// RAID-5).
func (ra *raid) parSlots(row int64) (p, q int) {
	p, q = ra.nslots-1-int(row%int64(ra.nslots)), -1
	if ra.dbl {
		q = (p + 1) % ra.nslots
	}
	return p, q
}

// dataSlot maps a data column to its slot: the columns occupy the
// non-parity slots of the row in index order.
func (ra *raid) dataSlot(row int64, col int) int {
	p, q := ra.parSlots(row)
	c := 0
	for s := 0; s < ra.nslots; s++ {
		if s == p || s == q {
			continue
		}
		if c == col {
			return s
		}
		c++
	}
	return -1
}

// colOfSlot inverts dataSlot; parity slots map to -1.
func (ra *raid) colOfSlot(row int64, slot int) int {
	p, q := ra.parSlots(row)
	if slot == p || slot == q {
		return -1
	}
	c := 0
	for s := 0; s < slot; s++ {
		if s != p && s != q {
			c++
		}
	}
	return c
}

// alive reports whether a row slot's current rig (member or spliced-in
// spare) is serving requests.
func (ra *raid) alive(slot int) bool { return !ra.v.Members[ra.slotRig[slot]].Driver.Dead() }

// noteErr watches member completions for deaths so a hot spare is
// drafted as soon as any request observes the failure — detection is
// I/O-driven, so an idle volume stays quiescent.
func (ra *raid) noteErr(err error) {
	if errors.Is(err, fault.ErrCrash) {
		ra.checkRebuild()
	}
}

func (ra *raid) errLost(blk int64, missing int) error {
	return fmt.Errorf("volume: block %d unrecoverable: stripe row lost %d members, parity covers %d: %w",
		blk, missing, ra.npar, driver.ErrDead)
}

// scratch takes a block-size buffer for parity math off the volume's
// free list (its contents are unspecified: every use below starts with
// a whole-block copy) and notes it in *pool, which release returns at
// request end. Member reads are never written to — they are shared
// with the member's store — so every result is one of its operands
// (sole), or computed into scratch or into a fresh buffer.
func (ra *raid) scratch(pool *[][]byte) []byte {
	var buf []byte
	if n := len(ra.free); n > 0 {
		buf = ra.free[n-1]
		ra.free[n-1] = nil
		ra.free = ra.free[:n-1]
	} else {
		buf = make([]byte, ra.v.bs.Bytes())
	}
	*pool = append(*pool, buf)
	return buf
}

// release returns the scratch noted in *pool to the free list and
// clears every slot, so what is done with the pool references no
// buffer.
func (ra *raid) release(pool *[][]byte) {
	for i, b := range *pool {
		if b != nil {
			ra.free = append(ra.free, b)
		}
		(*pool)[i] = nil
	}
	*pool = (*pool)[:0]
}

// handOff takes buf out of pool for good: it leaves the volume —
// delivered to the reader, or written to a member, whose store may keep
// it — so it must never be reused as scratch. A buf pool does not hold
// (a member read) is left alone.
func handOff(pool [][]byte, buf []byte) {
	for i, b := range pool {
		if b != nil && &b[0] == &buf[0] {
			pool[i] = nil
			return
		}
	}
}

// solveRow fills the nil (unreadable) entries of colv — the row's
// data columns — from whichever parity blocks are available (nil =
// unreadable). Solved columns land in scratch buffers noted in *pool,
// except that a column solved from P with no other non-zero operand is
// that operand's own (read-only) buffer. Returns how many columns
// remain unsolved.
func (ra *raid) solveRow(colv [][]byte, p, q []byte, pool *[][]byte) int {
	x, y, unknown := -1, -1, 0
	for c, b := range colv {
		if b == nil {
			unknown++
			if x < 0 {
				x = c
			} else if y < 0 {
				y = c
			}
		}
	}
	switch {
	case unknown == 0:
		return 0
	case unknown == 1 && p != nil:
		// D_x = P ⊕ ⊕_{c≠x} D_c, the XOR of the row with P standing in
		// for column x.
		colv[x] = p
		if one := sole(colv...); one != nil {
			colv[x] = one
			return 0
		}
		buf := ra.scratch(pool)
		copy(buf, p)
		for c, b := range colv {
			if c != x {
				xorInto(buf, b)
			}
		}
		colv[x] = buf
		return 0
	case unknown == 1 && q != nil:
		// D_x = g^{-x} (Q ⊕ Σ_{c≠x} g^c D_c)
		buf := ra.scratch(pool)
		copy(buf, q)
		for c, b := range colv {
			if c != x {
				gfMulAddInto(buf, gfPow(c), b)
			}
		}
		gfMulInto(buf, gfDiv(1, gfPow(x)))
		colv[x] = buf
		return 0
	case unknown == 2 && p != nil && q != nil:
		// Two erasures: with P_xy and Q_xy the syndromes restricted to
		// the two unknown columns,
		//   D_x = [g^y P_xy ⊕ Q_xy] / (g^x ⊕ g^y),  D_y = D_x ⊕ P_xy.
		pxy, qxy := ra.scratch(pool), ra.scratch(pool)
		copy(pxy, p)
		copy(qxy, q)
		for c, b := range colv {
			if c != x && c != y {
				xorInto(pxy, b)
				gfMulAddInto(qxy, gfPow(c), b)
			}
		}
		t := gfPow(x) ^ gfPow(y)
		a, b := &gfTab[gfDiv(gfPow(y), t)], &gfTab[gfDiv(1, t)]
		_ = qxy[len(pxy)-1]
		for i, pv := range pxy {
			dx := a[pv] ^ b[qxy[i]]
			pxy[i], qxy[i] = dx, dx^pv
		}
		colv[x], colv[y] = pxy, qxy
		return 0
	}
	return unknown
}

// parityP returns the P parity of the row's data columns (every entry
// of colv set): the one non-zero column itself if there is at most one
// (sole), else their XOR computed into dst — with dst nil, into a fresh
// buffer built by copy, so a parity block a member keeps is not zeroed
// first.
func (ra *raid) parityP(dst []byte, colv [][]byte) []byte {
	if one := sole(colv...); one != nil {
		return one
	}
	dst = append(dst[:0], colv[0]...)
	for c := 1; c < ra.ndata; c++ {
		xorInto(dst, colv[c])
	}
	return dst
}

// parityQ returns the Q syndrome of the row's data columns the same
// way: column 0 itself when every other column is zero (g^0 = 1), else
// the syndrome computed into dst, or a fresh buffer when dst is nil.
func (ra *raid) parityQ(dst []byte, colv [][]byte) []byte {
	rest := 1
	for rest < ra.ndata && isZero(colv[rest]) {
		rest++
	}
	if rest == ra.ndata {
		return colv[0]
	}
	dst = append(dst[:0], colv[0]...)
	for c := rest; c < ra.ndata; c++ {
		gfMulAddInto(dst, gfPow(c), colv[c])
	}
	return dst
}

// rreq is the parity layout's pooled request record: one per row
// access — a foreground read or write, a rebuild copy or a scrub step —
// holding the row-read fan-in buffers and the completion callbacks
// handed to member drivers, prebuilt once per record so the
// steady-state paths (healthy direct read, healthy read-modify-write,
// clean scrub row) allocate nothing at the volume layer.
type rreq struct {
	ra   *raid
	next *rreq

	write bool
	mode  int
	blk   int64
	data  []byte
	done  driver.DoneFunc
	start float64

	row                 int64
	col                 int
	mb                  int64
	dslot, pslot, qslot int

	pending    int
	okW, failW int
	wErr       error
	degraded   bool
	lockHeld   bool

	bufs [][]byte // row-read results, by slot (read-only, shared)
	errs []error  // row-read errors, by slot
	colv [][]byte // per-column data values for parity math
	pool [][]byte // scratch buffers (released in putReq)

	newP, newQ []byte

	readCBs  []driver.DoneFunc
	writeCB  driver.DoneFunc
	lockedFn func()
}

func (ra *raid) getReq() *rreq {
	r := ra.freeReq
	if r == nil {
		return ra.newReq()
	}
	ra.freeReq = r.next
	r.next = nil
	return r
}

// newReq builds a fresh record with its callbacks prebuilt. Kept out
// of getReq so the closures there don't force a heap cell for the
// popped record on the (allocation-free) pool-hit path.
func (ra *raid) newReq() *rreq {
	r := &rreq{ra: ra}
	r.bufs = make([][]byte, ra.nslots)
	r.errs = make([]error, ra.nslots)
	r.colv = make([][]byte, ra.ndata)
	r.readCBs = make([]driver.DoneFunc, ra.nslots)
	for i := range r.readCBs {
		i := i
		r.readCBs[i] = func(data []byte, err error) { r.readDone(i, data, err) }
	}
	r.writeCB = func(_ []byte, err error) { r.writeDone(err) }
	r.lockedFn = func() { r.locked() }
	return r
}

// putReq retires a record. Its scratch goes back to the free list, and
// every buffer reference it holds is cleared — the row reads, the
// columns, the pool's slots, the new parity — so a pooled record pins
// no block.
func (ra *raid) putReq(r *rreq) {
	ra.release(&r.pool)
	clear(r.bufs)
	clear(r.errs)
	clear(r.colv)
	r.newP, r.newQ = nil, nil
	r.data, r.done, r.wErr = nil, nil, nil
	r.write, r.degraded, r.lockHeld = false, false, false
	r.mode, r.pending, r.okW, r.failW = 0, 0, 0, 0
	r.blk, r.start = 0, 0
	r.next = ra.freeReq
	ra.freeReq = r
}

// setup fills the request's row coordinates.
func (r *rreq) setup(blk int64) {
	ra := r.ra
	r.blk = blk
	r.start = ra.v.Eng.Now()
	r.row, r.col, r.mb = ra.addr(blk)
	r.dslot = ra.dataSlot(r.row, r.col)
	r.pslot, r.qslot = ra.parSlots(r.row)
}

// read implements placement: healthy reads go straight to the data
// slot with no row lock; anything else reconstructs under the lock.
func (ra *raid) read(blk int64, done driver.DoneFunc) {
	r := ra.getReq()
	r.done = done
	r.write = false
	r.setup(blk)
	if ra.alive(r.dslot) {
		r.mode = mDirect
		ra.issueRead(r, r.dslot)
		return
	}
	ra.checkRebuild()
	r.markDegraded()
	r.mode = mRecon
	ra.lock(r.row, r.lockedFn)
}

// write implements placement: every write serializes on its row lock,
// then picks read-modify-write or reconstruct-write by row health.
func (ra *raid) write(blk int64, data []byte, done driver.DoneFunc) {
	r := ra.getReq()
	r.done = done
	r.write = true
	r.data = data
	r.setup(blk)
	if !ra.alive(r.dslot) || !ra.alive(r.pslot) || (ra.dbl && !ra.alive(r.qslot)) {
		ra.checkRebuild()
	}
	ra.lock(r.row, r.lockedFn)
}

// background starts a rebuild copy or a scrub step of member block mb
// under its row lock. The row is read whole — every live slot; the
// slot being rebuilt is dead, so it is never read — and the step
// finishes in copyDone or scrubDone.
func (ra *raid) background(mode int, mb int64) {
	r := ra.getReq()
	r.mode = mode
	r.mb, r.row = mb, mb/ra.unit
	r.col, r.dslot = -1, -1
	r.pslot, r.qslot = ra.parSlots(r.row)
	ra.lock(r.row, r.lockedFn)
}

func (ra *raid) issueRead(r *rreq, slot int) {
	r.pending++
	ra.v.Members[ra.slotRig[slot]].Driver.ReadBlock(0, r.mb, r.readCBs[slot])
}

// issueWrite writes data to rig's block r.mb: a row slot's current rig,
// or the spare a rebuild is filling.
func (ra *raid) issueWrite(r *rreq, rig int, data []byte) {
	r.pending++
	ra.v.Members[rig].Driver.WriteBlock(0, r.mb, data, r.writeCB)
}

func (r *rreq) markDegraded() {
	if r.degraded {
		return
	}
	r.degraded = true
	r.ra.v.degraded++
}

// locked runs once the row lock is held.
func (r *rreq) locked() {
	r.lockHeld = true
	if r.write {
		r.startWrite()
		return
	}
	r.readRow(false)
}

// readRow issues reads for every live, not-yet-attempted slot of the
// row; the target data slot joins only on write paths (its old value
// can be needed to solve another missing column). With nothing to read
// a foreground request still completes in a later event, while a
// background pass stands down at once: no live member means every row
// is beyond parity.
func (r *rreq) readRow(includeTarget bool) {
	ra := r.ra
	for s := 0; s < ra.nslots; s++ {
		if !includeTarget && s == r.dslot {
			continue
		}
		if r.bufs[s] != nil || r.errs[s] != nil || !ra.alive(s) {
			continue
		}
		ra.issueRead(r, s)
	}
	switch {
	case r.pending > 0:
	case r.mode >= mRebuild:
		r.halt()
	default:
		ra.v.Eng.After(0, func() { r.rowDone() })
	}
}

func (r *rreq) startWrite() {
	ra := r.ra
	if ra.alive(r.dslot) && ra.alive(r.pslot) && (!ra.dbl || ra.alive(r.qslot)) {
		r.mode = mRMW
		ra.issueRead(r, r.dslot)
		ra.issueRead(r, r.pslot)
		if ra.dbl {
			ra.issueRead(r, r.qslot)
		}
		return
	}
	r.markDegraded()
	pAlive := ra.alive(r.pslot)
	qAlive := ra.dbl && ra.alive(r.qslot)
	if !pAlive && !qAlive {
		if !ra.alive(r.dslot) {
			ra.cum.Unrecoverable++
			r.failAsync(ra.errLost(r.blk, ra.npar+1))
			return
		}
		// No surviving parity to maintain: degenerate to a plain data
		// write — unless a dead parity slot's spare already holds this
		// block, in which case the row reads below let us keep the
		// rebuilt copy coherent.
		rb := ra.rebuild
		if rb == nil || r.mb >= rb.cursor || (rb.slot != r.pslot && rb.slot != r.qslot) {
			r.mode = mRowWrite
			r.beginWrites()
			return
		}
	}
	r.mode = mRowWrite
	r.readRow(true)
}

func (r *rreq) readDone(slot int, data []byte, err error) {
	ra := r.ra
	if err != nil {
		ra.noteErr(err)
	}
	if r.mode == mDirect {
		if err == nil {
			r.finish(data, nil)
			return
		}
		// Dead member or latent sector error: reconstruct from the rest
		// of the row.
		r.errs[slot] = err
		r.pending = 0
		r.markDegraded()
		r.mode = mRecon
		ra.lock(r.row, r.lockedFn)
		return
	}
	r.bufs[slot], r.errs[slot] = data, err
	r.pending--
	if r.pending == 0 {
		r.rowDone()
	}
}

func (r *rreq) rowDone() {
	switch r.mode {
	case mRecon:
		r.finishRecon()
	case mRMW:
		r.rmwDone()
	case mRowWrite:
		r.rowWriteDone()
	case mRebuild:
		r.copyDone()
	case mScrub:
		r.scrubDone()
	}
}

// gather loads colv with the row's data columns and returns its P and
// Q blocks, leaving nil wherever a slot was not read or its read
// failed. live also drops the slots whose member has died since: a
// scrub only trusts what is still on a live member.
func (r *rreq) gather(live bool) (p, q []byte) {
	ra := r.ra
	got := func(s int) []byte {
		if s < 0 || r.errs[s] != nil || (live && !ra.alive(s)) {
			return nil
		}
		return r.bufs[s]
	}
	for c := range r.colv {
		r.colv[c] = got(ra.dataSlot(r.row, c))
	}
	return got(r.pslot), got(r.qslot)
}

func (r *rreq) rmwDone() {
	ra := r.ra
	if r.errs[r.dslot] != nil || r.errs[r.pslot] != nil || (ra.dbl && r.errs[r.qslot] != nil) {
		// A small-write read failed (media error, or the member died
		// mid-request): fall back to the reconstruct-write, reusing
		// whatever read cleanly.
		r.markDegraded()
		r.mode = mRowWrite
		r.readRow(true)
		return
	}
	// The 4-I/O small write: both new parities follow from the data
	// delta, folded into fresh buffers — the members keep what they are
	// written, and the old blocks the reads lent are never changed. A
	// parity with at most one non-zero operand is that operand (sole):
	// a row's first write makes the new data its P, and its Q too in
	// column 0, whose coefficient is 1.
	oldD := r.bufs[r.dslot]
	if r.newP = sole(r.bufs[r.pslot], oldD, r.data); r.newP == nil {
		r.newP = make([]byte, len(r.data))
		xor3(r.newP, r.bufs[r.pslot], oldD, r.data)
	}
	if ra.dbl {
		if r.col == 0 {
			r.newQ = sole(r.bufs[r.qslot], oldD, r.data)
		}
		if r.newQ == nil {
			r.newQ = make([]byte, len(r.data))
			gfMulAddDelta(r.newQ, r.bufs[r.qslot], gfPow(r.col), oldD, r.data)
		}
	}
	ra.cum.ParityRecomputes++
	r.beginWrites()
}

func (r *rreq) rowWriteDone() {
	ra := r.ra
	p, q := r.gather(false)
	if left := ra.solveRow(r.colv, p, q, &r.pool); left > 0 {
		// Unsolved old values are fatal only off the target column:
		// the column being overwritten never needs its old data.
		for c := 0; c < ra.ndata; c++ {
			if r.colv[c] == nil && c != r.col {
				ra.cum.Unrecoverable++
				r.finishUnlock(nil, ra.errLost(r.blk, left))
				return
			}
		}
	}
	r.colv[r.col] = r.data
	rb := ra.rebuild
	// The new parities are written, so they are fresh buffers or
	// columns; a column solved into scratch leaves it.
	if ra.alive(r.pslot) || (rb != nil && rb.slot == r.pslot && r.mb < rb.cursor) {
		r.newP = ra.parityP(nil, r.colv)
		handOff(r.pool, r.newP)
	}
	if ra.dbl && (ra.alive(r.qslot) || (rb != nil && rb.slot == r.qslot && r.mb < rb.cursor)) {
		r.newQ = ra.parityQ(nil, r.colv)
		handOff(r.pool, r.newQ)
	}
	ra.cum.ParityRecomputes++
	r.beginWrites()
}

// beginWrites fans the new data and parity out to the row's live
// slots, plus a write-through to the spare when the rebuilt region
// already covers this block.
func (r *rreq) beginWrites() {
	ra := r.ra
	r.okW, r.failW, r.wErr = 0, 0, nil
	r.pending = 0
	if ra.alive(r.dslot) {
		ra.issueWrite(r, ra.slotRig[r.dslot], r.data)
	}
	if r.newP != nil && ra.alive(r.pslot) {
		ra.issueWrite(r, ra.slotRig[r.pslot], r.newP)
	}
	if r.newQ != nil && ra.alive(r.qslot) {
		ra.issueWrite(r, ra.slotRig[r.qslot], r.newQ)
	}
	if rb := ra.rebuild; rb != nil && r.mb < rb.cursor && !ra.v.Members[rb.rig].Driver.Dead() {
		var val []byte
		switch rb.slot {
		case r.dslot:
			val = r.data
		case r.pslot:
			val = r.newP
		case r.qslot:
			val = r.newQ
		}
		if val != nil {
			ra.issueWrite(r, rb.rig, val)
		}
	}
	if r.pending == 0 {
		// Defensive: every writable slot vanished between the health
		// check and the fan-out.
		ra.cum.Unrecoverable++
		r.failAsync(ra.errLost(r.blk, ra.npar+1))
	}
}

func (r *rreq) writeDone(err error) {
	ra := r.ra
	if err != nil {
		ra.noteErr(err)
		r.failW++
		if r.wErr == nil {
			r.wErr = err
		}
	} else {
		r.okW++
		if r.mode == mScrub {
			ra.cum.ScrubRepairs++
		}
	}
	r.pending--
	if r.pending > 0 {
		return
	}
	switch r.mode {
	case mRebuild:
		if r.failW > 0 {
			r.halt() // the spare died under the copy
			return
		}
		ra.cum.RebuiltBlocks++
		r.stepOn()
	case mScrub:
		r.stepOn()
	default:
		// A write survives failures within the parity budget as long as
		// some member accepted its block: the row stays reconstructable.
		var ferr error
		if r.failW > 0 && (r.okW == 0 || r.failW > ra.npar) {
			ferr = r.wErr
		}
		r.finishUnlock(nil, ferr)
	}
}

func (r *rreq) finishRecon() {
	ra := r.ra
	p, q := r.gather(false)
	if left := ra.solveRow(r.colv, p, q, &r.pool); left > 0 || r.colv[r.col] == nil {
		ra.cum.Unrecoverable++
		r.finishUnlock(nil, ra.errLost(r.blk, left))
		return
	}
	// The caller gets the solved column itself, which therefore leaves
	// the scratch the record releases (unless it is an operand's buffer,
	// which is not scratch).
	out := r.colv[r.col]
	handOff(r.pool, out)
	ra.cum.DegradedReads++
	r.finishUnlock(out, nil)
}

// failAsync defers a failure so no completion runs inside the issuing
// call even when nothing could be issued.
func (r *rreq) failAsync(err error) {
	r.ra.v.Eng.After(0, func() { r.finishUnlock(nil, err) })
}

// unlock releases the row lock if the record holds it.
func (r *rreq) unlock() {
	if r.lockHeld {
		r.lockHeld = false
		r.ra.unlock(r.row)
	}
}

func (r *rreq) finishUnlock(data []byte, err error) {
	r.unlock()
	r.finish(data, err)
}

func (r *rreq) finish(data []byte, err error) {
	ra := r.ra
	v := ra.v
	resp := v.Eng.Now() - r.start
	v.stats.RespMSSum += resp
	if v.mxResp != nil {
		v.mxResp.Record(resp)
	}
	done := r.done
	ra.putReq(r)
	if done != nil {
		done(data, err)
	}
}
