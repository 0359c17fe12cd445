package fs

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// On-disk serialization. Every metadata structure is fully encoded so a
// file system can be remounted from the disk image alone.

// descriptor block layout (block 0 of each cylinder group):
//
//	magic u32 | group u32 | superblock section (24 bytes, meaningful in
//	group 0) | inode bitmap (len u32 + bytes) | data bitmap (len u32 +
//	bytes)
//
// superblock section: blockBytes u32 | cylsPerGroup u32 |
// inodeBlocksPerGroup u32 | stride u32 | totalBlocks u64.
const (
	descMagic  = 0x43475250 // "CGRP"
	inodeMagic = 0x494E4F44 // "INOD"
)

func (f *FS) encodeDescriptor(gi int) []byte {
	g := f.groups[gi]
	buf := make([]byte, f.blockBytes)
	be := binary.BigEndian
	be.PutUint32(buf[0:], descMagic)
	be.PutUint32(buf[4:], uint32(gi))
	be.PutUint32(buf[8:], uint32(f.blockBytes))
	be.PutUint32(buf[12:], uint32(f.prm.CylsPerGroup))
	be.PutUint32(buf[16:], uint32(f.prm.InodeBlocksPerGroup))
	be.PutUint32(buf[20:], uint32(f.prm.Stride))
	be.PutUint64(buf[24:], uint64(f.totalBlocks))
	off := 32
	off = putBitmap(buf, off, g.inodeUsed)
	putBitmap(buf, off, g.dataUsed)
	return buf
}

// decodeSuper extracts the format parameters from a group-0 descriptor
// block.
func decodeSuper(buf []byte) (blockBytes int, prm Params, totalBlocks int64, err error) {
	be := binary.BigEndian
	if len(buf) < 32 || be.Uint32(buf[0:]) != descMagic {
		return 0, Params{}, 0, fmt.Errorf("fs: bad descriptor magic")
	}
	blockBytes = int(be.Uint32(buf[8:]))
	prm.CylsPerGroup = int(be.Uint32(buf[12:]))
	prm.InodeBlocksPerGroup = int(be.Uint32(buf[16:]))
	prm.Stride = int(be.Uint32(buf[20:]))
	totalBlocks = int64(be.Uint64(buf[24:]))
	return blockBytes, prm, totalBlocks, nil
}

// decodeDescriptor restores a group's bitmaps from its descriptor block.
func (f *FS) decodeDescriptor(gi int, buf []byte) error {
	be := binary.BigEndian
	if be.Uint32(buf[0:]) != descMagic {
		return fmt.Errorf("fs: group %d: bad descriptor magic", gi)
	}
	if got := int(be.Uint32(buf[4:])); got != gi {
		return fmt.Errorf("fs: group %d: descriptor claims group %d", gi, got)
	}
	g := f.groups[gi]
	off, err := getBitmap(buf, 32, g.inodeUsed)
	if err != nil {
		return fmt.Errorf("fs: group %d: %w", gi, err)
	}
	if _, err := getBitmap(buf, off, g.dataUsed); err != nil {
		return fmt.Errorf("fs: group %d: %w", gi, err)
	}
	g.freeIno, g.freeData = 0, 0
	for _, u := range g.inodeUsed {
		if !u {
			g.freeIno++
		}
	}
	for _, u := range g.dataUsed {
		if !u {
			g.freeData++
		}
	}
	return nil
}

func putBitmap(buf []byte, off int, bits []bool) int {
	binary.BigEndian.PutUint32(buf[off:], uint32(len(bits)))
	off += 4
	for i, b := range bits {
		if b {
			buf[off+i/8] |= 1 << (i % 8)
		}
	}
	return off + (len(bits)+7)/8
}

func getBitmap(buf []byte, off int, bits []bool) (int, error) {
	if off+4 > len(buf) {
		return 0, fmt.Errorf("truncated bitmap header")
	}
	n := int(binary.BigEndian.Uint32(buf[off:]))
	if n != len(bits) {
		return 0, fmt.Errorf("bitmap of %d bits, want %d", n, len(bits))
	}
	off += 4
	if off+(n+7)/8 > len(buf) {
		return 0, fmt.Errorf("truncated bitmap body")
	}
	for i := range bits {
		bits[i] = buf[off+i/8]&(1<<(i%8)) != 0
	}
	return off + (n+7)/8, nil
}

// inode layout (InodeSize bytes per slot):
//
//	magic u32 | flags u16 (bit0 used, bit1 dir) | pad u16 | size u64 |
//	indirect i64 | NDirect × direct i64
const (
	inoFlagUsed = 1 << 0
	inoFlagDir  = 1 << 1
)

// encodeInodeBlock returns the serialized form of the given inode-table
// block. The result is the block's shared image: the bytes depend only
// on the in-memory inodes of that block, so they are built once and
// handed out again until inodeChanged drops them — an access-time touch,
// which changes no encoded field, re-serializes nothing. An image is
// immutable from the moment it is returned: every consumer takes it
// under the cache's ownership contract (WriteOwned, WriteBlock), which
// forbids writing to a payload, and a change builds a fresh buffer
// rather than patching this one.
func (f *FS) encodeInodeBlock(blk int64) []byte {
	img := &f.inoImages[f.imageIndex(blk)]
	if *img == nil {
		*img = f.buildInodeBlock(blk)
	}
	return *img
}

// imageIndex is the position of inode-table block blk in f.inoImages.
func (f *FS) imageIndex(blk int64) int {
	gi := f.groupOf(blk)
	return gi*f.prm.InodeBlocksPerGroup + int(blk-f.groups[gi].base-1)
}

// inodeChanged drops the image of ino's inode-table block. Every
// assignment to an encoded field of an in-memory inode (dir, size,
// direct, indirect), to a group's inodeUsed, or to f.inodes itself must
// be followed by this call before the block is next encoded. (Newfs and
// Mount fill a fresh FS, which holds no image yet.)
func (f *FS) inodeChanged(ino Ino) {
	f.inoImages[f.imageIndex(f.inodeBlockOf(ino))] = nil
}

// buildInodeBlock serializes all inode slots of the given inode-table
// block from the in-memory inode table.
func (f *FS) buildInodeBlock(blk int64) []byte {
	buf := make([]byte, f.blockBytes)
	gi := f.groupOf(blk)
	g := f.groups[gi]
	blkIdx := int(blk - g.base - 1) // which inode block within the group
	be := binary.BigEndian
	for slot := 0; slot < f.inosPerBlk; slot++ {
		idx := blkIdx*f.inosPerBlk + slot
		if idx >= len(g.inodeUsed) || !g.inodeUsed[idx] {
			continue
		}
		ino := f.inoOf(gi, idx)
		nd := f.inodes[ino]
		if nd == nil {
			continue
		}
		o := slot * InodeSize
		be.PutUint32(buf[o:], inodeMagic)
		flags := uint16(inoFlagUsed)
		if nd.dir {
			flags |= inoFlagDir
		}
		be.PutUint16(buf[o+4:], flags)
		be.PutUint64(buf[o+8:], uint64(nd.size))
		be.PutUint64(buf[o+16:], uint64(nd.indirect))
		for i, d := range nd.direct {
			be.PutUint64(buf[o+24+i*8:], uint64(d))
		}
	}
	return buf
}

// decodeInodeSlot restores one inode from an inode-table block. It
// returns nil if the slot is unused.
func decodeInodeSlot(buf []byte, slot int, ino Ino) (*inode, error) {
	o := slot * InodeSize
	be := binary.BigEndian
	if be.Uint32(buf[o:]) != inodeMagic {
		return nil, nil // unused slot
	}
	flags := be.Uint16(buf[o+4:])
	if flags&inoFlagUsed == 0 {
		return nil, nil
	}
	nd := &inode{
		ino:      ino,
		dir:      flags&inoFlagDir != 0,
		size:     int64(be.Uint64(buf[o+8:])),
		indirect: int64(be.Uint64(buf[o+16:])),
	}
	for i := range nd.direct {
		nd.direct[i] = int64(be.Uint64(buf[o+24+i*8:]))
	}
	if nd.dir {
		nd.entries = make(map[string]Ino)
	}
	return nd, nil
}

// encodeIndirect serializes an indirect block's pointer array.
func (f *FS) encodeIndirect(ptrs []int64) []byte {
	buf := make([]byte, f.blockBytes)
	be := binary.BigEndian
	for i := 0; i < f.ptrsPerBlk; i++ {
		v := int64(-1)
		if i < len(ptrs) {
			v = ptrs[i]
		}
		be.PutUint64(buf[i*8:], uint64(v))
	}
	return buf
}

func (f *FS) decodeIndirect(buf []byte) []int64 {
	ptrs := make([]int64, f.ptrsPerBlk)
	be := binary.BigEndian
	for i := range ptrs {
		ptrs[i] = int64(be.Uint64(buf[i*8:]))
	}
	// Trim trailing unused slots.
	n := len(ptrs)
	for n > 0 && ptrs[n-1] == -1 {
		n--
	}
	return ptrs[:n]
}

// directory entry layout: ino i64 | name (MaxNameLen bytes, NUL padded).
func (f *FS) entriesPerBlock() int { return f.blockBytes / DirEntrySize }

// encodeDirBlock serializes one block of a directory's entry table.
func (f *FS) encodeDirBlock(nd *inode, blkIdx int) []byte {
	buf := make([]byte, f.blockBytes)
	be := binary.BigEndian
	per := f.entriesPerBlock()
	for slot := 0; slot < per; slot++ {
		i := blkIdx*per + slot
		if i >= len(nd.order) {
			break
		}
		name := nd.order[i]
		o := slot * DirEntrySize
		be.PutUint64(buf[o:], uint64(nd.entries[name]))
		copy(buf[o+8:o+8+MaxNameLen], name)
	}
	return buf
}

// decodeDirBlock restores directory entries from one block, appending
// them to the inode's entry table. n is the number of entries the
// directory holds in total (from its inode size field).
func (f *FS) decodeDirBlock(nd *inode, blkIdx int, buf []byte, n int) {
	be := binary.BigEndian
	per := f.entriesPerBlock()
	for slot := 0; slot < per; slot++ {
		i := blkIdx*per + slot
		if i >= n {
			break
		}
		o := slot * DirEntrySize
		ino := Ino(int64(be.Uint64(buf[o:])))
		raw, _, _ := bytes.Cut(buf[o+8:o+8+MaxNameLen], []byte{0})
		name := string(raw)
		nd.entries[name] = ino
		nd.order = append(nd.order, name)
	}
}

// A data block is a window of its file system's tape, word w of which is
// tapeWord(w): one starts at each of the first tapeSlots words, and one
// block of words more makes the last whole. tapeStride, odd (tapeSlots
// over the golden ratio), steps the slot from one inode to the next.
const tapeSlots, tapeStride = 1 << 16, 40503

// tapeWord is the (w+1)-th output of splitmix64 seeded at 0, a bijection
// on uint64: windows at different slots differ in every word.
func tapeWord(w uint64) uint64 {
	z := (w + 1) * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func tapeSlot(ino Ino, idx int64) int {
	return int((uint64(ino)*tapeStride + uint64(idx)) % tapeSlots)
}

// dataPattern is the deterministic content of block idx of file ino,
// which lets tests verify that block rearrangement never corrupts file
// contents: its slot's window of the tape, capped so an append cannot
// write into the tape. It allocates nothing. No two blocks of one file
// share a window while idx < tapeSlots, nor two inodes below tapeSlots
// at one idx; any other two blocks do with chance about 1/tapeSlots
// (1.5e-5), measured 1.8e-6 over all pairs among the first 4096 inodes'
// first 16 blocks.
func (f *FS) dataPattern(ino Ino, idx int64) []byte {
	o := 8 * tapeSlot(ino, idx)
	return f.tape[o : o+f.blockBytes : o+f.blockBytes]
}

// CheckPattern reports whether data is the content of block idx of file
// ino. It recomputes the words from the generator and never reads the
// tape: it is the reference the windows are checked against.
func (f *FS) CheckPattern(data []byte, ino Ino, idx int64) bool {
	w := uint64(tapeSlot(ino, idx))
	for o := 0; o+8 <= len(data); o, w = o+8, w+1 {
		if binary.LittleEndian.Uint64(data[o:]) != tapeWord(w) {
			return false
		}
	}
	return len(data) == f.blockBytes
}
