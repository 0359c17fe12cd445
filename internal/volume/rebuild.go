package volume

import "bytes"

// Background repair for the parity layouts: rebuild copies a dead
// member's contents onto a hot spare one block at a time, scrub
// sweeps the volume re-deriving every stripe row and rewriting
// whatever disagrees. Both run as chains of simulated-time events —
// there is no daemon goroutine and no timer while the volume is
// healthy and scrub is unarmed, so Run() still quiesces exactly when
// the foreground work drains. Each step is one row access on the
// pooled rreq record of parity.go, in mode mRebuild or mScrub.
//
// Failure detection is I/O-driven: every completion that reports a
// member crash calls checkRebuild, so the spare is drafted the moment
// any request (foreground, rebuild, or scrub) observes the death.
// Each copied block holds its stripe row's lock, which serializes it
// against foreground writes; writes landing below the rebuild cursor
// are written through to the spare (parity.go), so a completed
// rebuild is exact, not approximate.

type rebuildState struct {
	slot    int   // row slot being regenerated
	rig     int   // spare rig receiving the copy
	cursor  int64 // next member block to copy; blocks below are done
	startMS float64
}

// checkRebuild drafts a healthy spare for the first dead slot, if a
// rebuild is not already running. Spares are consumed in rig order;
// a spare that itself died is skipped (and dropped once drafted —
// a half-written spare is never returned to the pool).
func (ra *raid) checkRebuild() {
	if ra.rebuild != nil || len(ra.spareRigs) == 0 {
		return
	}
	slot := -1
	for s := 0; s < ra.nslots; s++ {
		if !ra.alive(s) {
			slot = s
			break
		}
	}
	if slot < 0 {
		return
	}
	for i, rig := range ra.spareRigs {
		if ra.v.Members[rig].Driver.Dead() {
			continue
		}
		ra.spareRigs = append(ra.spareRigs[:i], ra.spareRigs[i+1:]...)
		ra.rebuild = &rebuildState{slot: slot, rig: rig, startMS: ra.v.Eng.Now()}
		ra.cum.RebuildsStarted++
		ra.v.Eng.After(ra.stepDelay(), ra.copyFn)
		return
	}
}

// stepDelay is the rebuild/scrub throttle: the base pace is
// 1000/rate ms per block, stretched by the members' current queue
// depth so background repair yields to foreground traffic (an idle
// array rebuilds at full rate; a busy one backs off up to 9×).
func (ra *raid) stepDelay() float64 {
	load := 0
	for s := 0; s < ra.nslots; s++ {
		d := ra.v.Members[ra.slotRig[s]].Driver
		if !d.Dead() {
			load += d.Outstanding()
		}
	}
	if load > 8 {
		load = 8
	}
	return (1000 / ra.rate) * float64(1+load)
}

// copyStep advances the rebuild by one member block.
func (ra *raid) copyStep() {
	rb := ra.rebuild
	if rb == nil {
		return
	}
	if ra.v.Members[rb.rig].Driver.Dead() {
		ra.abortRebuild()
		return
	}
	if rb.cursor >= ra.per {
		ra.finishRebuild()
		return
	}
	ra.background(mRebuild, rb.cursor)
}

// copyDone regenerates the rebuilt slot's block from the row's
// survivors and writes it to the spare, still under the row lock.
func (r *rreq) copyDone() {
	ra := r.ra
	rb := ra.rebuild
	p, q := r.gather(false)
	// What the spare is written it keeps: a parity block is a column or
	// a fresh buffer, and a column solved into scratch leaves it.
	var val []byte
	if ra.solveRow(r.colv, p, q, &r.pool) == 0 {
		switch rb.slot {
		case r.pslot:
			val = ra.parityP(nil, r.colv)
		case r.qslot:
			val = ra.parityQ(nil, r.colv)
		default:
			val = r.colv[ra.colOfSlot(r.row, rb.slot)]
		}
		handOff(r.pool, val)
	}
	if val == nil {
		// This row lost more than parity covers; its data is gone
		// regardless, so skip the block and keep rebuilding the rest.
		ra.cum.Unrecoverable++
		r.stepOn()
		return
	}
	ra.issueWrite(r, rb.rig, val)
}

// stepOn ends a background step: it releases the row, advances its
// pass past the block and schedules the next step after the throttle.
func (r *rreq) stepOn() {
	ra, mode := r.ra, r.mode
	r.unlock()
	ra.putReq(r)
	if mode == mRebuild {
		ra.rebuild.cursor++
		ra.v.Eng.After(ra.stepDelay(), ra.copyFn)
		return
	}
	ra.scrubMB++
	ra.v.Eng.After(ra.stepDelay(), ra.scrubFn)
}

// halt ends a background pass at this step: the rebuild stands down
// (its spare, or every source, died), the scrub stops until its next
// tick.
func (r *rreq) halt() {
	ra, mode := r.ra, r.mode
	r.unlock()
	ra.putReq(r)
	if mode == mRebuild {
		ra.abortRebuild()
		return
	}
	ra.scrubbing = false
}

// finishRebuild splices the spare into the dead member's row slot;
// from here it serves reads and takes writes like any member.
func (ra *raid) finishRebuild() {
	rb := ra.rebuild
	ra.rebuild = nil
	ra.slotRig[rb.slot] = rb.rig
	ra.cum.RebuildsDone++
	ra.cum.RebuildMS += ra.v.Eng.Now() - rb.startMS
	ra.checkRebuild() // another slot may already be waiting
}

// abortRebuild stands down after the spare (or every source) died.
// The half-written spare is abandoned; a remaining healthy spare, if
// any, starts over from block zero.
func (ra *raid) abortRebuild() {
	if ra.rebuild == nil {
		return
	}
	ra.rebuild = nil
	ra.checkRebuild()
}

// rebuildProgress is the metrics gauge: fraction of the spare copied,
// 0 outside a rebuild.
func (ra *raid) rebuildProgress() float64 {
	if ra.rebuild == nil || ra.per == 0 {
		return 0
	}
	return float64(ra.rebuild.cursor) / float64(ra.per)
}

// StartScrub arms the periodic scrub pass on a parity volume with a
// configured ScrubIntervalMS and reports whether it did. It is
// separate from New so format-style setup can still use Run()'s
// run-to-quiescence; once armed, the engine always has a future event
// and callers must advance time with RunUntil. Close disarms it.
func (v *Volume) StartScrub() bool {
	ra := v.ra
	if ra == nil || ra.scrubEveryMS <= 0 || ra.scrubCancel != nil {
		return false
	}
	ra.scrubCancel = v.Eng.Every(ra.scrubEveryMS, ra.scrubTick)
	return true
}

// scrubTick starts a sweep unless one is already running or a rebuild
// owns the background-I/O budget.
func (ra *raid) scrubTick() {
	if ra.scrubbing || ra.rebuild != nil {
		return
	}
	ra.scrubbing = true
	ra.cum.ScrubPasses++
	ra.scrubMB = 0
	ra.scrubStep()
}

func (ra *raid) scrubStep() {
	if ra.scrubMB >= ra.per {
		ra.scrubbing = false
		return
	}
	ra.background(mScrub, ra.scrubMB)
}

// scrubDone re-derives the row read at every live slot and rewrites
// what disagrees: a latent sector error on a data slot is
// reconstructed from parity, an unreadable or stale parity block is
// recomputed from data. Read-back data is ground truth — only
// unreadable blocks and derived (parity) blocks are rewritten.
func (r *rreq) scrubDone() {
	ra := r.ra
	p, q := r.gather(true)
	if ra.solveRow(r.colv, p, q, &r.pool) != 0 {
		// Can't re-derive the row; if that hid a latent error the data
		// is already beyond parity.
		for _, err := range r.errs {
			if err != nil {
				ra.cum.Unrecoverable++
				break
			}
		}
		r.stepOn()
		return
	}
	expP := ra.parityP(ra.scratch(&r.pool), r.colv)
	var expQ []byte
	if ra.dbl {
		expQ = ra.parityQ(ra.scratch(&r.pool), r.colv)
	}
	// A repair write only ever kills its own member, so each slot is
	// judged and written in turn.
	for c := 0; c < ra.ndata; c++ {
		if s := ra.dataSlot(r.row, c); ra.alive(s) && r.errs[s] != nil {
			r.repair(s, r.colv[c])
		}
	}
	if ra.alive(r.pslot) && (r.errs[r.pslot] != nil || !bytes.Equal(r.bufs[r.pslot], expP)) {
		r.repair(r.pslot, expP)
	}
	if ra.dbl && ra.alive(r.qslot) && (r.errs[r.qslot] != nil || !bytes.Equal(r.bufs[r.qslot], expQ)) {
		r.repair(r.qslot, expQ)
	}
	if r.pending == 0 {
		r.stepOn()
	}
}

// repair rewrites slot with val, which the member keeps.
func (r *rreq) repair(slot int, val []byte) {
	handOff(r.pool, val)
	r.ra.issueWrite(r, r.ra.slotRig[slot], val)
}
