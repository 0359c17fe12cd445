package volume

import (
	"bytes"

	"repro/internal/driver"
)

// Background repair for the parity layouts: rebuild copies a dead
// member's contents onto a hot spare one block at a time, scrub
// sweeps the volume re-deriving every stripe row and rewriting
// whatever disagrees. Both run as chains of simulated-time events —
// there is no daemon goroutine and no timer while the volume is
// healthy and scrub is unarmed, so Run() still quiesces exactly when
// the foreground work drains.
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
		if ra.v.devs[rig].Dead() {
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
		d := ra.v.devs[ra.slotRig[s]]
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
	if ra.v.devs[rb.rig].Dead() {
		ra.abortRebuild()
		return
	}
	if rb.cursor >= ra.per {
		ra.finishRebuild()
		return
	}
	mb := rb.cursor
	row := mb / ra.unit
	ra.lock(row, func() { ra.copyBlock(rb, mb, row) })
}

// copyBlock regenerates member block mb of the rebuilt slot from the
// row's survivors and writes it to the spare, all under the row lock.
func (ra *raid) copyBlock(rb *rebuildState, mb, row int64) {
	bufs := make([][]byte, ra.nslots)
	errs := make([]error, ra.nslots)
	pending := 0
	var fanIn func()
	rd := func(s int) driver.DoneFunc {
		return func(data []byte, err error) {
			if err != nil {
				ra.noteErr(err)
			}
			bufs[s], errs[s] = data, err
			pending--
			if pending == 0 {
				fanIn()
			}
		}
	}
	for s := 0; s < ra.nslots; s++ {
		if s == rb.slot || !ra.alive(s) {
			continue
		}
		rig := ra.slotRig[s]
		pending++
		ra.v.devs[rig].ReadBlock(0, mb, rd(s))
	}
	if pending == 0 {
		// No live sources at all: the row is beyond parity, and so is
		// every other row. Stand down.
		ra.unlock(row)
		ra.abortRebuild()
		return
	}
	fanIn = func() {
		ps, qs := ra.pslot(row), -1
		if ra.dbl {
			qs = ra.qslot(row)
		}
		colv := make([][]byte, ra.ndata)
		for c := 0; c < ra.ndata; c++ {
			if s := ra.dataSlot(row, c); s != rb.slot && errs[s] == nil && bufs[s] != nil {
				colv[c] = bufs[s]
			}
		}
		var p, q []byte
		if ps != rb.slot && errs[ps] == nil {
			p = bufs[ps]
		}
		if qs >= 0 && qs != rb.slot && errs[qs] == nil {
			q = bufs[qs]
		}
		// What the spare is written it keeps: a parity block is computed
		// into a fresh buffer, a solved data column leaves the scratch.
		var pool [][]byte
		var val []byte
		if ra.solveRow(colv, p, q, &pool) == 0 {
			switch rb.slot {
			case ps:
				val = ra.parityP(make([]byte, ra.v.bs.Bytes()), colv)
			case qs:
				val = ra.parityQ(make([]byte, ra.v.bs.Bytes()), colv)
			default:
				val = colv[ra.colOfSlot(row, rb.slot)]
				handOff(pool, val)
			}
		}
		ra.release(&pool)
		if val == nil {
			// This row lost more than parity covers; its data is gone
			// regardless, so skip the block and keep rebuilding the rest.
			ra.cum.Unrecoverable++
			ra.unlock(row)
			rb.cursor++
			ra.v.Eng.After(ra.stepDelay(), ra.copyFn)
			return
		}
		ra.v.devs[rb.rig].WriteBlock(0, mb, val, func(_ []byte, err error) {
			ra.unlock(row)
			if err != nil {
				ra.noteErr(err)
				ra.abortRebuild()
				return
			}
			ra.cum.RebuiltBlocks++
			rb.cursor++
			ra.v.Eng.After(ra.stepDelay(), ra.copyFn)
		})
	}
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
	ra.scrubStep(0)
}

func (ra *raid) scrubStep(mb int64) {
	if mb >= ra.per {
		ra.scrubbing = false
		return
	}
	row := mb / ra.unit
	ra.lock(row, func() { ra.scrubBlock(mb, row) })
}

// scrubBlock reads every live copy of member block mb, re-derives the
// row, and rewrites what disagrees: a latent sector error on a data
// slot is reconstructed from parity, an unreadable or stale parity
// block is recomputed from data. Read-back data is ground truth —
// only unreadable blocks and derived (parity) blocks are rewritten.
func (ra *raid) scrubBlock(mb, row int64) {
	bufs := make([][]byte, ra.nslots)
	errs := make([]error, ra.nslots)
	pending := 0
	var fanIn func()
	rd := func(s int) driver.DoneFunc {
		return func(data []byte, err error) {
			if err != nil {
				ra.noteErr(err)
			}
			bufs[s], errs[s] = data, err
			pending--
			if pending == 0 {
				fanIn()
			}
		}
	}
	for s := 0; s < ra.nslots; s++ {
		if !ra.alive(s) {
			continue
		}
		rig := ra.slotRig[s]
		pending++
		ra.v.devs[rig].ReadBlock(0, mb, rd(s))
	}
	if pending == 0 {
		ra.unlock(row)
		ra.scrubbing = false
		return
	}
	fanIn = func() {
		ps, qs := ra.pslot(row), -1
		if ra.dbl {
			qs = ra.qslot(row)
		}
		colv := make([][]byte, ra.ndata)
		for c := 0; c < ra.ndata; c++ {
			if s := ra.dataSlot(row, c); ra.alive(s) && errs[s] == nil {
				colv[c] = bufs[s]
			}
		}
		var p, q []byte
		if ra.alive(ps) && errs[ps] == nil {
			p = bufs[ps]
		}
		if qs >= 0 && ra.alive(qs) && errs[qs] == nil {
			q = bufs[qs]
		}
		var pool [][]byte
		defer ra.release(&pool)
		finish := func() {
			ra.unlock(row)
			ra.v.Eng.After(ra.stepDelay(), func() { ra.scrubStep(mb + 1) })
		}
		if ra.solveRow(colv, p, q, &pool) != 0 {
			// Can't re-derive the row; if that hid a latent error the
			// data is already beyond parity.
			for s := range errs {
				if errs[s] != nil {
					ra.cum.Unrecoverable++
					break
				}
			}
			finish()
			return
		}
		expP := ra.parityP(ra.scratch(&pool), colv)
		var expQ []byte
		if ra.dbl {
			expQ = ra.parityQ(ra.scratch(&pool), colv)
		}
		type repair struct {
			slot int
			val  []byte
		}
		var reps []repair
		for c := 0; c < ra.ndata; c++ {
			if s := ra.dataSlot(row, c); ra.alive(s) && errs[s] != nil {
				reps = append(reps, repair{s, colv[c]})
			}
		}
		if ra.alive(ps) && (errs[ps] != nil || !bytes.Equal(bufs[ps], expP)) {
			reps = append(reps, repair{ps, expP})
		}
		if qs >= 0 && ra.alive(qs) && (errs[qs] != nil || !bytes.Equal(bufs[qs], expQ)) {
			reps = append(reps, repair{qs, expQ})
		}
		if len(reps) == 0 {
			finish()
			return
		}
		wpending := len(reps)
		for _, rp := range reps {
			handOff(pool, rp.val) // the member keeps what it is written
			rig := ra.slotRig[rp.slot]
			ra.v.devs[rig].WriteBlock(0, mb, rp.val, func(_ []byte, err error) {
				if err != nil {
					ra.noteErr(err)
				} else {
					ra.cum.ScrubRepairs++
				}
				wpending--
				if wpending == 0 {
					finish()
				}
			})
		}
	}
}
