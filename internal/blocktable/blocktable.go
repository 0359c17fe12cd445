// Package blocktable implements the driver's block table (Section 4.1.2
// of "Adaptive Block Rearrangement Under UNIX").
//
// When a block is copied into the reserved region, its old and new
// physical addresses are entered into the block table. The strategy
// routine consults the table on every request to decide whether to
// redirect the request to the reserved region. Each entry carries a
// dirty bit recording whether the reserved copy has been written since
// it was installed; a dirty block must be copied back to its original
// location when it is cleaned out.
//
// A copy of the table is stored at the beginning of the reserved region
// for use at start-up and for recovery. The on-disk copy always
// correctly lists the rearranged blocks and their positions, but the
// dirty bits may be stale; after a crash, recovery conservatively marks
// every entry dirty so that no update to a repositioned block can be
// lost (MarkAllDirty, which the driver's attach applies after decoding).
package blocktable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/geom"
)

// Magic identifies an encoded block table ("BTBL").
const Magic uint32 = 0x4254424C

// Version is the current encoding version. Version 2 added the
// generation stamp that crash-safe dual-slot table writes order
// themselves by.
const Version uint16 = 2

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("blocktable: bad magic")
	ErrBadChecksum = errors.New("blocktable: bad checksum")
)

// Entry maps one rearranged block. Addresses are the first physical
// sector of the block at its original location and in the reserved
// region.
type Entry struct {
	Orig  int64
	New   int64
	Dirty bool
}

// Table is the in-memory block table. It is not safe for concurrent use;
// the driver serializes access as the kernel would.
//
// The table keeps its own encoding. The driver forces the table to disk
// after every block it moves in or out, so re-serializing and
// re-checksumming every entry per write made installing n blocks cost
// O(n²) entries of host work. Instead img holds the entries exactly as
// the on-disk image lays them out, sorted by original address, and sum
// and wsum hold the two sums the checksum is built from, each mutation
// patching what it changed: EncodeTo is a header, one copy and a few
// multiplications (see checksum).
type Table struct {
	blockSectors int
	byOrig       map[int64]int64 // original address -> reserved slot
	byNew        map[int64]int64 // reserved slot -> original address

	// img is the encoded entries, entrySize bytes each, sorted by
	// original address; the dirty bit lives only here. sums[k] is the
	// byte sum of entry k. sum is Σ img[j] and wsum Σ j·img[j].
	img       []byte
	sums      []uint16
	sum, wsum uint64

	// Gen is the table's generation stamp. The driver increments it on
	// every committed table write; recovery picks the on-disk slot with
	// the highest generation among those that decode. It rides through
	// Encode/Decode and has no meaning to the table itself.
	Gen uint64
}

// New returns an empty table for blocks of the given size.
func New(bs geom.BlockSize) *Table {
	return &Table{
		blockSectors: bs.Sectors(),
		byOrig:       make(map[int64]int64),
		byNew:        make(map[int64]int64),
	}
}

// BlockSectors returns the number of sectors per block.
func (t *Table) BlockSectors() int { return t.blockSectors }

// Len returns the number of rearranged blocks.
func (t *Table) Len() int { return len(t.byOrig) }

// Add installs a mapping from the block at orig to the reserved-region
// position new. Both addresses must be block-aligned and not already in
// use.
func (t *Table) Add(orig, new int64) error {
	if orig%int64(t.blockSectors) != 0 || new%int64(t.blockSectors) != 0 {
		return fmt.Errorf("blocktable: addresses %d -> %d not aligned to %d-sector blocks",
			orig, new, t.blockSectors)
	}
	if _, ok := t.byOrig[orig]; ok {
		return fmt.Errorf("blocktable: block at %d is already rearranged", orig)
	}
	if _, ok := t.byNew[new]; ok {
		return fmt.Errorf("blocktable: reserved slot %d is already occupied", new)
	}
	t.byOrig[orig] = new
	t.byNew[new] = orig

	var rec [entrySize]byte
	binary.BigEndian.PutUint64(rec[0:], uint64(orig))
	binary.BigEndian.PutUint64(rec[8:], uint64(new))
	s, w := recordSums(rec[:])
	k := t.index(orig)
	// Every later entry moves up one place: entrySize more weight on
	// each of its bytes.
	t.wsum += entrySize * t.sumFrom(k)
	t.sum += s
	t.wsum += uint64(entrySize*k)*s + w
	t.img = append(t.img, rec[:]...)
	copy(t.img[(k+1)*entrySize:], t.img[k*entrySize:])
	copy(t.img[k*entrySize:], rec[:])
	t.sums = append(t.sums, 0)
	copy(t.sums[k+1:], t.sums[k:])
	t.sums[k] = uint16(s)
	return nil
}

// Remove deletes the mapping for the block at orig. It returns the
// removed entry and whether it existed. Removing the lowest address —
// the order Clean empties the table in — moves no other entry.
func (t *Table) Remove(orig int64) (Entry, bool) {
	new, ok := t.byOrig[orig]
	if !ok {
		return Entry{}, false
	}
	delete(t.byOrig, orig)
	delete(t.byNew, new)
	k := t.index(orig)
	rec := t.img[k*entrySize : (k+1)*entrySize]
	e := Entry{Orig: orig, New: new, Dirty: rec[entrySize-1]&flagDirty != 0}
	s, w := recordSums(rec)
	t.sum -= s
	t.wsum -= uint64(entrySize*k)*s + w
	if k == 0 {
		t.img, t.sums = t.img[entrySize:], t.sums[1:]
	} else {
		copy(t.img[k*entrySize:], t.img[(k+1)*entrySize:])
		t.img = t.img[:len(t.img)-entrySize]
		copy(t.sums[k:], t.sums[k+1:])
		t.sums = t.sums[:len(t.sums)-1]
	}
	// Every later entry moved down one place.
	t.wsum -= entrySize * t.sumFrom(k)
	return e, true
}

// index returns the position of orig in img, or where it would be
// inserted.
func (t *Table) index(orig int64) int {
	lo, hi := 0, len(t.sums)
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(binary.BigEndian.Uint64(t.img[mid*entrySize:])) < orig {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sumFrom returns the byte sum of entries k onward, adding up whichever
// side of k is shorter.
func (t *Table) sumFrom(k int) uint64 {
	var part uint64
	if k < len(t.sums)/2 {
		for _, s := range t.sums[:k] {
			part += uint64(s)
		}
		return t.sum - part
	}
	for _, s := range t.sums[k:] {
		part += uint64(s)
	}
	return part
}

// recordSums returns the byte sum of rec and its sum weighted by each
// byte's offset in rec.
func recordSums(rec []byte) (s, w uint64) {
	for j, c := range rec {
		s += uint64(c)
		w += uint64(j) * uint64(c)
	}
	return s, w
}

// Lookup returns the reserved-region address of the block at orig, if it
// has been rearranged.
func (t *Table) Lookup(orig int64) (int64, bool) {
	new, ok := t.byOrig[orig]
	return new, ok
}

// ReverseLookup returns the original address of the block occupying the
// reserved slot new, if any.
func (t *Table) ReverseLookup(new int64) (int64, bool) {
	orig, ok := t.byNew[new]
	return orig, ok
}

// MarkDirty sets the dirty bit of the block at orig. It reports whether
// the block is in the table.
func (t *Table) MarkDirty(orig int64) bool {
	if _, ok := t.byOrig[orig]; !ok {
		return false
	}
	t.setDirty(t.index(orig))
	return true
}

// setDirty sets the dirty bit of entry k: the last byte of its flags
// goes from 0 to 1, adding 1 to the sum and the byte's offset to the
// weighted sum.
func (t *Table) setDirty(k int) {
	at := (k+1)*entrySize - 1
	if t.img[at]&flagDirty != 0 {
		return
	}
	t.img[at] |= flagDirty
	t.sums[k]++
	t.sum++
	t.wsum += uint64(at)
}

// IsDirty reports the dirty bit of the block at orig.
func (t *Table) IsDirty(orig int64) bool {
	if _, ok := t.byOrig[orig]; !ok {
		return false
	}
	return t.img[(t.index(orig)+1)*entrySize-1]&flagDirty != 0
}

// MarkAllDirty sets every entry's dirty bit. Recovery uses this so that
// updates to repositioned blocks survive a crash even if the on-disk
// dirty bits were stale.
func (t *Table) MarkAllDirty() {
	for k := range t.sums {
		t.setDirty(k)
	}
}

// Entries returns the table contents sorted by original address.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.sums))
	be := binary.BigEndian
	for i := range out {
		rec := t.img[i*entrySize:]
		out[i] = Entry{
			Orig:  int64(be.Uint64(rec)),
			New:   int64(be.Uint64(rec[8:])),
			Dirty: rec[entrySize-1]&flagDirty != 0,
		}
	}
	return out
}

// Encoding layout: a header followed by fixed-size entries, padded to a
// whole number of sectors.
//
//	header:  magic u32 | version u16 | blockSectors u16 | count u32 |
//	         checksum u32 (over generation + entries) | generation u64
//	entry:   orig u64 | new u64 | flags u16
//
// The checksum covers the generation stamp and the entry bytes, so a
// torn write that mixes a fresh header with stale entries (or tears
// the generation field itself) cannot decode as valid.
const (
	headerSize    = 24
	entrySize     = 18
	flagDirty     = 1 << 0
	offHdrMagic   = 0
	offHdrVersion = 4
	offHdrBlkSec  = 6
	offHdrCount   = 8
	offHdrCksum   = 12
	offHdrGen     = 16
)

// EncodedSectors returns the number of sectors needed to store a table
// of n entries.
func EncodedSectors(n int) int {
	bytes := headerSize + n*entrySize
	return (bytes + geom.SectorSize - 1) / geom.SectorSize
}

// MaxEntriesIn returns the largest entry count that fits in the given
// number of sectors.
func MaxEntriesIn(sectors int) int {
	bytes := sectors*geom.SectorSize - headerSize
	if bytes < 0 {
		return 0
	}
	return bytes / entrySize
}

// Encode serializes the table into a sector-aligned image.
func (t *Table) Encode() []byte { return t.EncodeTo(nil) }

// EncodeTo serializes the table into dst's storage when it is large
// enough (allocating otherwise) and returns the sector-aligned image.
// dst may hold bytes from a previous encoding; every byte of the
// returned image is written, including the sector padding. The driver
// reuses one scratch buffer across its block-table writes, which would
// otherwise allocate tens of KB per block movement.
func (t *Table) EncodeTo(dst []byte) []byte {
	used := headerSize + len(t.img)
	n := EncodedSectors(len(t.sums)) * geom.SectorSize
	var buf []byte
	if cap(dst) >= n {
		buf = dst[:n]
		// Zero the padding tail; the header and entries overwrite the
		// rest below.
		clear(buf[used:])
	} else {
		buf = make([]byte, n)
	}
	be := binary.BigEndian
	be.PutUint32(buf[offHdrMagic:], Magic)
	be.PutUint16(buf[offHdrVersion:], Version)
	be.PutUint16(buf[offHdrBlkSec:], uint16(t.blockSectors))
	be.PutUint32(buf[offHdrCount:], uint32(len(t.sums)))
	be.PutUint64(buf[offHdrGen:], t.Gen)
	copy(buf[headerSize:], t.img)
	be.PutUint32(buf[offHdrCksum:], t.checksum())
	return buf
}

// checksum returns crc over the generation stamp and the entries —
// what EncodeTo stores — from the kept sums. Over bytes d_0…d_{L-1},
// crc's a is 1 + Σd and its b is Σ (L−j)·d_j + L = L + L·S − W, where
// S = Σd and W = Σ j·d_j; both reduce mod 65521 only at the end, which
// leaves the residues the running form computes. The entries sit after
// the 8 generation bytes, so their weighted sum gains 8 per byte.
func (t *Table) checksum() uint32 {
	var gen [8]byte
	binary.BigEndian.PutUint64(gen[:], t.Gen)
	gs, gw := recordSums(gen[:])
	s := gs + t.sum
	w := gw + 8*t.sum + t.wsum
	l := uint64(len(gen) + len(t.img))
	a := (1 + s) % 65521
	b := (l + l*s - w) % 65521
	return uint32(b<<16 | a)
}

// Decode parses an encoded table image. The image may be longer than the
// encoded table (e.g. a whole reserved-area prefix read off disk).
func Decode(buf []byte) (*Table, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("blocktable: image of %d bytes is too small", len(buf))
	}
	be := binary.BigEndian
	if be.Uint32(buf[offHdrMagic:]) != Magic {
		return nil, ErrBadMagic
	}
	if v := be.Uint16(buf[offHdrVersion:]); v != Version {
		return nil, fmt.Errorf("blocktable: unsupported version %d", v)
	}
	blkSec := int(be.Uint16(buf[offHdrBlkSec:]))
	if blkSec <= 0 {
		return nil, fmt.Errorf("blocktable: invalid block size %d sectors", blkSec)
	}
	count := int(be.Uint32(buf[offHdrCount:]))
	// Validate the count against the image length in 64-bit arithmetic
	// so a hostile count cannot overflow the size computation.
	if int64(count)*entrySize > int64(len(buf))-headerSize {
		return nil, fmt.Errorf("blocktable: image of %d bytes holds fewer than %d entries", len(buf), count)
	}
	need := headerSize + count*entrySize
	if crc(buf[offHdrGen:need]) != be.Uint32(buf[offHdrCksum:]) {
		return nil, ErrBadChecksum
	}
	t := New(geom.BlockSize(blkSec * geom.SectorSize))
	t.Gen = be.Uint64(buf[offHdrGen:])
	for i := 0; i < count; i++ {
		o := headerSize + i*entrySize
		orig := int64(be.Uint64(buf[o:]))
		new := int64(be.Uint64(buf[o+8:]))
		if err := t.Add(orig, new); err != nil {
			return nil, err
		}
		if be.Uint16(buf[o+16:])&flagDirty != 0 {
			t.MarkDirty(orig)
		}
	}
	return t, nil
}

// crc is a simple 32-bit checksum (Fletcher-style) over the entry bytes.
// The modulo is deferred across runs of up to 5552 bytes — the largest
// run for which the b accumulator provably cannot overflow uint32 (the
// same bound Adler-32 uses) — which produces the exact residues of the
// per-byte form. Only Decode sums an image in full (at attach and
// recovery); EncodeTo derives the same value from the table's kept sums
// (checksum).
func crc(data []byte) uint32 {
	var a, b uint32 = 1, 0
	for len(data) > 0 {
		run := data
		if len(run) > 5552 {
			run = run[:5552]
		}
		for _, c := range run {
			a += uint32(c)
			b += a
		}
		a %= 65521
		b %= 65521
		data = data[len(run):]
	}
	return b<<16 | a
}
