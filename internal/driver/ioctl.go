package driver

import (
	"fmt"

	"repro/internal/blocktable"
	"repro/internal/geom"
	"repro/internal/label"
)

// This file implements the driver's special-purpose entry points — the
// analogues of the ioctl calls of Sections 4.1.3 and 4.1.4:
//
//	DKIOCBCOPY  -> (*Driver).BCopy
//	DKIOCCLEAN  -> (*Driver).Clean
//	request-table read/clear -> (*Driver).ReadRequestTable
//	statistics read/clear    -> (*Driver).ReadStats
//
// and the disk initialization performed by the paper's modified
// label-writing utility (InitDisk).

// ErrFunc is the completion callback of an asynchronous control
// operation.
type ErrFunc func(err error)

// BCopy copies the block whose original physical address is orig into
// the reserved region at physical address dst, enters it in the block
// table, and forces the block table to disk — the DKIOCBCOPY ioctl.
// Copying a block requires three I/O operations (read original, write
// reserved copy, write table); they go through the ordinary device queue
// and interleave with other traffic. Requests for the block are delayed
// until the move completes.
func (d *Driver) BCopy(orig, dst int64, done ErrFunc) {
	if err := d.checkMove(orig, dst); err != nil {
		d.failCtl(done, err)
		return
	}
	m := d.getMove()
	m.orig, m.dst, m.done = orig, dst, done
	d.moving[orig] = nil
	// 1: read the block from its original location.
	m.issue(moveRead, orig, d.cfg.BlockSize.Sectors(), nil)
}

// checkMove validates a BCopy address pair.
func (d *Driver) checkMove(orig, dst int64) error {
	if d.bt == nil {
		return ErrNotRearranged
	}
	bsec := int64(d.cfg.BlockSize.Sectors())
	if orig%bsec != 0 || dst%bsec != 0 {
		return fmt.Errorf("%w: bcopy %d -> %d", ErrNotAligned, orig, dst)
	}
	if orig < 0 || orig+bsec > d.dsk.Geom().TotalSectors() {
		return fmt.Errorf("%w: original %d", ErrBadBlock, orig)
	}
	if d.lbl.InReserved(orig) {
		return fmt.Errorf("driver bcopy: original address %d lies in the reserved region", orig)
	}
	resEnd := d.lbl.ReservedStart + d.lbl.ReservedLen
	tableEnd := d.tableAt + int64(tableSectors(d.cfg.BlockSize))
	if dst < tableEnd || dst+bsec > resEnd {
		return fmt.Errorf("driver bcopy: destination %d outside usable reserved region [%d, %d)",
			dst, tableEnd, resEnd)
	}
	if _, ok := d.bt.Lookup(orig); ok {
		return fmt.Errorf("driver bcopy: block at %d is already rearranged", orig)
	}
	if _, ok := d.bt.ReverseLookup(dst); ok {
		return fmt.Errorf("driver bcopy: reserved slot %d is occupied", dst)
	}
	if d.spares[dst] {
		return fmt.Errorf("driver bcopy: reserved slot %d is in use as a bad-block spare", dst)
	}
	if d.bt.Len() >= maxTableEntries {
		return fmt.Errorf("driver bcopy: block table full (%d entries)", maxTableEntries)
	}
	return nil
}

// Clean removes every block from the reserved region — the DKIOCCLEAN
// ioctl. Dirty blocks are first copied back to their original locations;
// after each block is moved out the block table is updated and rewritten
// to disk. Moving a clean block out costs one I/O (the table write);
// a dirty block costs two more.
func (d *Driver) Clean(done ErrFunc) {
	if d.bt == nil {
		d.failCtl(done, ErrNotRearranged)
		return
	}
	m := d.getMove()
	m.entries, m.done = d.bt.Entries(), done
	m.cleanNext()
}

// movePhase is the device operation a block move waits on.
type movePhase uint8

const (
	moveRead       movePhase = iota // BCopy: read the original
	moveCopy                        // BCopy: write the reserved copy
	moveTable                       // either: force the block table to disk
	moveCleanRead                   // clean-out: read a dirty reserved copy
	moveCleanWrite                  // clean-out: write it back home
)

// movePhases names each phase's operations for the fault injector.
var movePhases = [...]string{
	moveRead:       "bcopy-read",
	moveCopy:       "bcopy-copy",
	moveTable:      "table-write",
	moveCleanRead:  "clean-read",
	moveCleanWrite: "clean-write",
}

// move is one block movement in flight: a BCopy, or a Clean removing
// its blocks one at a time. Its phase is a field and its one
// completion callback is built with the record, its device operations
// are pooled ioreqs, and records are pooled on the driver (getMove), so
// a night of moves allocates nothing per block once warm. Concurrent
// moves each hold a record.
type move struct {
	d     *Driver
	next  *move // free list
	phase movePhase
	// orig is the block being moved and dst a BCopy's reserved slot.
	orig, dst int64
	// entries are a clean-out's blocks and at the index of orig's; a
	// BCopy has none.
	entries []blocktable.Entry
	at      int
	// scratch says the table write in flight encoded into d.tableBuf.
	scratch bool
	done    ErrFunc
	stepFn  DoneFunc // m.step, bound once
}

// getMove takes a move record from the free list, or builds one with
// its callback bound.
func (d *Driver) getMove() *move {
	m := d.moveFree
	if m == nil {
		m = &move{d: d}
		m.stepFn = m.step
		return m
	}
	d.moveFree, m.next = m.next, nil
	return m
}

// issue enqueues the move's operation of phase p, a pooled ioreq that
// completes into step. It is identified by the block it moves, a table
// write by its own sector.
func (m *move) issue(p movePhase, sector int64, count int, data []byte) {
	d := m.d
	m.phase = p
	r := d.getReq()
	r.internal = true
	r.write = p == moveCopy || p == moveTable || p == moveCleanWrite
	r.keep = p == moveCopy || p == moveCleanWrite
	r.phase = movePhases[p]
	r.orig, r.sector, r.count, r.data = m.orig, sector, count, data
	if p == moveTable {
		r.orig = sector
	}
	r.arriveMS = d.eng.Now()
	r.done = m.stepFn
	d.enqueue(r)
}

// step ends the phase whose operation completed and starts the next.
func (m *move) step(data []byte, err error) {
	d := m.d
	bsec := d.cfg.BlockSize.Sectors()
	switch m.phase {
	case moveRead:
		if err != nil {
			m.finish(fmt.Errorf("driver bcopy: reading original: %w", err))
			return
		}
		// 2: write it to the reserved slot. The read lent the
		// original's page, and the reserved copy keeps that very page:
		// a second address, not a second copy of the bytes.
		m.issue(moveCopy, m.dst, bsec, data)
	case moveCopy:
		if err != nil {
			m.finish(fmt.Errorf("driver bcopy: writing reserved copy: %w", err))
			return
		}
		if err := d.bt.Add(m.orig, m.dst); err != nil {
			m.finish(err)
			return
		}
		// 3: force the updated block table to disk.
		m.writeTable()
	case moveCleanRead:
		if err != nil {
			m.finish(fmt.Errorf("driver clean: reading reserved copy: %w", err))
			return
		}
		m.issue(moveCleanWrite, m.orig, bsec, data)
	case moveCleanWrite:
		if err != nil {
			m.finish(fmt.Errorf("driver clean: restoring original: %w", err))
			return
		}
		m.remove()
	case moveTable:
		if m.scratch {
			d.tableBufBusy = false
		}
		m.finish(err)
	}
}

// cleanNext starts removing the clean-out's next block, or ends the
// clean-out when none is left.
func (m *move) cleanNext() {
	if m.at >= len(m.entries) {
		m.end(nil)
		return
	}
	e := m.entries[m.at]
	m.orig = e.Orig
	m.d.moving[e.Orig] = nil
	if !m.d.bt.IsDirty(e.Orig) {
		// The original copy is still current; just drop the mapping.
		m.remove()
		return
	}
	// Copy the reserved copy back to the original location first.
	m.issue(moveCleanRead, e.New, m.d.cfg.BlockSize.Sectors(), nil)
}

// remove drops the clean-out's current block from the block table and
// forces the table to disk.
func (m *move) remove() {
	m.d.bt.Remove(m.orig)
	m.writeTable()
}

// finish ends the move of m.orig: the requests delayed behind it run,
// then a clean-out goes on to its next block unless err stopped it.
func (m *move) finish(err error) {
	d := m.d
	waiters := d.moving[m.orig]
	delete(d.moving, m.orig)
	for _, w := range waiters {
		d.strategy(w.write, w.vsec, w.data, w.done)
	}
	if m.entries != nil && err == nil {
		m.at++
		m.cleanNext()
		return
	}
	m.end(err)
}

// end returns the record to the pool, then reports err: done may start
// the next move on the same record.
func (m *move) end(err error) {
	done := m.done
	m.entries, m.at, m.scratch, m.done = nil, 0, false, nil
	m.next, m.d.moveFree = m.d.moveFree, m
	if done != nil {
		done(err)
	}
}

// writeTable forces the current block table image to its home at the
// start of the reserved region. In fault-tolerant mode the write is
// crash-safe: the generation stamp is bumped and the image goes to the
// slot the previous committed write did not use, so a power loss can
// tear at most the slot being written while the other slot still
// decodes to the previous generation.
func (m *move) writeTable() {
	d := m.d
	at := d.tableAt
	sectors := tableSectors(d.cfg.BlockSize)
	if d.inj != nil {
		d.bt.Gen++
		sectors = slotSectors(d.cfg.BlockSize)
		at += int64(d.bt.Gen%2) * int64(sectors)
	}
	// The write covers the whole slot so stale tails are overwritten,
	// but carries only the image: the disk writes the rest of the extent
	// as zeros (disk.Write), so the simulated write is the slot's while
	// the host builds and stores only the table. The image is encoded
	// into a per-driver scratch buffer: table writes serialize through
	// their completion chains, so the scratch is almost always free; if
	// a second write does overlap the first (tableBufBusy), it encodes
	// into a fresh buffer. The disk model copies the data when the
	// request is dispatched, and the busy flag is held until completion,
	// which covers that window. The scratch grows by doubling, as the
	// table does one entry at a time.
	var img []byte
	m.scratch = !d.tableBufBusy
	if m.scratch {
		if n := blocktable.EncodedSectors(d.bt.Len()) * geom.SectorSize; cap(d.tableBuf) < n {
			d.tableBuf = make([]byte, 0, 2*n)
		}
		img = d.bt.EncodeTo(d.tableBuf[:0])
		d.tableBuf, d.tableBufBusy = img, true
	} else {
		img = d.bt.Encode()
	}
	m.issue(moveTable, at, sectors, img)
}

// ReservedSlots returns the physical sector addresses of all reserved-
// region block slots available for rearranged data (excluding the block
// table prefix), grouped per cylinder in organ-pipe cylinder order: the
// slots of the middle reserved cylinder come first, then those of the
// cylinders on alternating sides. The block arranger fills slots in this
// order (Section 2).
func (d *Driver) ReservedSlots() [][]int64 {
	if !d.lbl.Rearranged {
		return nil
	}
	g := d.dsk.Geom()
	first, count := d.lbl.ReservedCyls()
	bsec := int64(d.cfg.BlockSize.Sectors())
	tableEnd := d.tableAt + int64(tableSectors(d.cfg.BlockSize))
	// Round the first usable slot up to a block boundary.
	usable := (tableEnd + bsec - 1) / bsec * bsec
	var out [][]int64
	for _, cyl := range geom.OrganPipeCylinders(first, count) {
		lo := g.FirstSectorOfCyl(cyl)
		hi := lo + int64(g.SectorsPerCyl())
		var slots []int64
		for s := (lo + bsec - 1) / bsec * bsec; s+bsec <= hi; s += bsec {
			if s < usable || d.spares[s] {
				continue
			}
			slots = append(slots, s)
		}
		if len(slots) > 0 {
			out = append(out, slots)
		}
	}
	return out
}

// failCtl delivers an immediate asynchronous control error.
func (d *Driver) failCtl(done ErrFunc, err error) {
	d.eng.After(0, func() {
		if done != nil {
			done(err)
		}
	})
}

// InitDisk writes a label (and, for rearranged labels, an empty block
// table) onto a fresh disk, without timing effects. It performs the role
// of the paper's modified disk-initialization utility (Section 4.1.1).
func InitDisk(dsk interface {
	PokeData(sector int64, data []byte) error
}, lbl *label.Label, bs geom.BlockSize) error {
	img, err := lbl.Encode()
	if err != nil {
		return err
	}
	if err := dsk.PokeData(label.LabelSector, img); err != nil {
		return err
	}
	if lbl.Rearranged {
		bt := blocktable.New(bs)
		full := make([]byte, tableSectors(bs)*geom.SectorSize)
		copy(full, bt.Encode())
		if err := dsk.PokeData(lbl.ReservedStart, full); err != nil {
			return err
		}
	}
	return nil
}
