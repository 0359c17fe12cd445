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
	d.moving[orig] = nil
	bsec := d.cfg.BlockSize.Sectors()
	finish := func(err error) {
		waiters := d.moving[orig]
		delete(d.moving, orig)
		for _, w := range waiters {
			d.strategy(w.write, w.vsec, w.count, w.data, w.done)
		}
		if done != nil {
			done(err)
		}
	}
	// 1: read the block from its original location.
	d.enqueue(&ioreq{internal: true, phase: "bcopy-read", orig: orig, sector: orig, count: bsec, arriveMS: d.eng.Now(),
		cyl: d.dsk.Geom().CylinderOf(orig),
		done: func(data []byte, err error) {
			if err != nil {
				finish(fmt.Errorf("driver bcopy: reading original: %w", err))
				return
			}
			// 2: write it to the reserved slot.
			d.enqueue(&ioreq{internal: true, write: true, phase: "bcopy-copy", orig: orig, sector: dst, count: bsec, data: data,
				arriveMS: d.eng.Now(), cyl: d.dsk.Geom().CylinderOf(dst),
				done: func(_ []byte, err error) {
					if err != nil {
						finish(fmt.Errorf("driver bcopy: writing reserved copy: %w", err))
						return
					}
					if err := d.bt.Add(orig, dst); err != nil {
						finish(err)
						return
					}
					// 3: force the updated block table to disk.
					d.writeTable(func(err error) { finish(err) })
				}})
		}})
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
	entries := d.bt.Entries()
	d.cleanNext(entries, 0, done)
}

// BClean removes a single block from the reserved region, copying it
// back to its original location first if dirty — the per-block variant
// of DKIOCCLEAN that incremental rearrangement uses. It is a no-op if
// the block is not rearranged.
func (d *Driver) BClean(orig int64, done ErrFunc) {
	if d.bt == nil {
		d.failCtl(done, ErrNotRearranged)
		return
	}
	dst, ok := d.bt.Lookup(orig)
	if !ok {
		d.failCtl(done, nil)
		return
	}
	entry := blocktable.Entry{Orig: orig, New: dst, Dirty: d.bt.IsDirty(orig)}
	d.cleanNext([]blocktable.Entry{entry}, 0, done)
}

// cleanNext removes entries[i:] one at a time, asynchronously.
func (d *Driver) cleanNext(entries []blocktable.Entry, i int, done ErrFunc) {
	if i >= len(entries) {
		if done != nil {
			done(nil)
		}
		return
	}
	e := entries[i]
	d.moving[e.Orig] = nil
	bsec := d.cfg.BlockSize.Sectors()
	step := func(err error) {
		waiters := d.moving[e.Orig]
		delete(d.moving, e.Orig)
		for _, w := range waiters {
			d.strategy(w.write, w.vsec, w.count, w.data, w.done)
		}
		if err != nil {
			if done != nil {
				done(err)
			}
			return
		}
		d.cleanNext(entries, i+1, done)
	}
	remove := func() {
		d.bt.Remove(e.Orig)
		d.writeTable(step)
	}
	if !d.bt.IsDirty(e.Orig) {
		// The original copy is still current; just drop the mapping.
		remove()
		return
	}
	// Copy the reserved copy back to the original location first.
	d.enqueue(&ioreq{internal: true, phase: "clean-read", orig: e.Orig, sector: e.New, count: bsec, arriveMS: d.eng.Now(),
		cyl: d.dsk.Geom().CylinderOf(e.New),
		done: func(data []byte, err error) {
			if err != nil {
				step(fmt.Errorf("driver clean: reading reserved copy: %w", err))
				return
			}
			d.enqueue(&ioreq{internal: true, write: true, phase: "clean-write", orig: e.Orig, sector: e.Orig, count: bsec, data: data,
				arriveMS: d.eng.Now(), cyl: d.dsk.Geom().CylinderOf(e.Orig),
				done: func(_ []byte, err error) {
					if err != nil {
						step(fmt.Errorf("driver clean: restoring original: %w", err))
						return
					}
					remove()
				}})
		}})
}

// writeTable forces the current block table image to its home at the
// start of the reserved region. In fault-tolerant mode the write is
// crash-safe: the generation stamp is bumped and the image goes to the
// slot the previous committed write did not use, so a power loss can
// tear at most the slot being written while the other slot still
// decodes to the previous generation.
func (d *Driver) writeTable(done ErrFunc) {
	at := d.tableAt
	sectors := tableSectors(d.cfg.BlockSize)
	if d.inj != nil {
		d.bt.Gen++
		sectors = slotSectors(d.cfg.BlockSize)
		at += int64(d.bt.Gen%2) * int64(sectors)
	}
	// The write covers the whole slot so stale tails are overwritten.
	// The image is encoded into a per-driver scratch buffer: table
	// writes serialize through their completion chains, so the scratch
	// is almost always free; if a second write does overlap the first
	// (tableBufBusy), it falls back to a fresh allocation. The disk
	// model copies the data when the request is dispatched, and the
	// busy flag is held until completion, which covers that window.
	size := sectors * geom.SectorSize
	var full []byte
	usedScratch := false
	if !d.tableBufBusy {
		if cap(d.tableBuf) < size {
			d.tableBuf = make([]byte, size)
			d.tableBufUsed = 0
		}
		img := d.bt.EncodeTo(d.tableBuf[:0])
		// The buffer beyond the previous image is still zero; clear
		// only the stale bytes a shrinking table leaves behind.
		if d.tableBufUsed > len(img) {
			clear(d.tableBuf[len(img):d.tableBufUsed])
		}
		d.tableBufUsed = len(img)
		d.tableBufBusy = true
		usedScratch = true
		full = d.tableBuf[:size]
	} else {
		full = make([]byte, size)
		copy(full, d.bt.Encode())
	}
	d.enqueue(&ioreq{internal: true, write: true, phase: "table-write", orig: at, sector: at,
		count: size / geom.SectorSize, data: full,
		arriveMS: d.eng.Now(), cyl: d.dsk.Geom().CylinderOf(at),
		done: func(_ []byte, err error) {
			if usedScratch {
				d.tableBufBusy = false
			}
			if done != nil {
				done(err)
			}
		}})
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
