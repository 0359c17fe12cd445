package fs

import (
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
	dataMagic  = 0x44415441 // "DATA"
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
		name := trimNul(buf[o+8 : o+8+MaxNameLen])
		nd.entries[name] = ino
		nd.order = append(nd.order, name)
	}
}

func trimNul(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// dataPattern generates the deterministic content of a file data block.
// The pattern lets tests verify, byte for byte, that block rearrangement
// never corrupts file contents.
func (f *FS) dataPattern(ino Ino, idx int64) []byte {
	buf := make([]byte, f.blockBytes)
	be := binary.BigEndian
	be.PutUint32(buf[0:], dataMagic)
	be.PutUint32(buf[4:], uint32(ino))
	be.PutUint64(buf[8:], uint64(idx))
	seed := uint64(ino)*2654435761 + uint64(idx)*40503
	for i := 16; i < len(buf); i += 8 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		be.PutUint64(buf[i:], seed)
	}
	return buf
}

// CheckPattern reports whether data is the expected content of block idx
// of file ino.
func (f *FS) CheckPattern(data []byte, ino Ino, idx int64) bool {
	want := f.dataPattern(ino, idx)
	if len(data) != len(want) {
		return false
	}
	for i := range data {
		if data[i] != want[i] {
			return false
		}
	}
	return true
}
