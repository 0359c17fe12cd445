// Package fs implements an FFS-style UNIX file system over the adaptive
// driver — the substrate whose layout policies shape the disk workload
// in "Adaptive Block Rearrangement Under UNIX" (Section 3.1).
//
// Like the SunOS UFS the paper ran on, this file system:
//
//   - divides the partition into cylinder groups, each holding a group
//     descriptor block, an inode table, and data blocks;
//   - places a file's inode in its directory's cylinder group and the
//     file's data blocks near its inode;
//   - lays out successive blocks of a file with a rotational interleave
//     gap (the "interleaving factor" the interleaved placement policy
//     tries to preserve);
//   - routes all I/O through a buffer cache with delayed writes and a
//     periodic update policy; and
//   - generates bookkeeping writes (inode access-time updates) even for
//     read-only workloads, which is why the paper's read-only system
//     file system still sees write traffic.
//
// All metadata (superblock, group descriptors, inodes, directories,
// indirect blocks) is serialized to the simulated disk, so a file system
// can be unmounted and remounted from the on-disk image alone, and block
// rearrangement can be checked to preserve file contents byte for byte.
package fs

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Ino is an inode number.
type Ino int32

// RootIno is the root directory's inode number.
const RootIno Ino = 0

// InodeSize is the on-disk size of one inode in bytes.
const InodeSize = 128

// NDirect is the number of direct block pointers per inode; larger files
// spill into a single indirect block.
const NDirect = 12

// DirEntrySize is the on-disk size of one directory entry: an inode
// number and a fixed-width name.
const DirEntrySize = 32

// MaxNameLen is the longest permitted file name.
const MaxNameLen = DirEntrySize - 8

// Params configures Newfs.
type Params struct {
	// CylsPerGroup sets the cylinder-group size; zero selects the FFS
	// default of 16 cylinders.
	CylsPerGroup int
	// InodeBlocksPerGroup sets the inode-table size per group; zero
	// selects 2 blocks.
	InodeBlocksPerGroup int
	// Stride is the physical distance, in blocks, between successive
	// blocks of a file (1 = contiguous; 2 = the classic one-block
	// rotational gap). Zero selects 2.
	Stride int
	// UpdateAtime controls whether reads dirty the file's inode block
	// (UNIX access-time bookkeeping). Defaults to true via Newfs.
	NoAtime bool
	// SyncData makes file data writes synchronous (write-through), as an
	// NFS2 server's are; metadata keeps the delayed update policy.
	SyncData bool
	// Cache configures the data buffer cache.
	Cache cache.Config
	// MetaCache configures the separate metadata cache (inode-table,
	// directory, indirect and descriptor blocks) — the analogue of the
	// in-core inode table UNIX keeps apart from the buffer cache. Its
	// delayed bookkeeping writes, flushed together by the update
	// policy, are what make UNIX write traffic arrive in concentrated
	// bursts. Zero values select a 512-block cache with the same sync
	// period as the data cache.
	MetaCache cache.Config
}

func (p Params) withDefaults() Params {
	if p.CylsPerGroup <= 0 {
		p.CylsPerGroup = 16
	}
	if p.InodeBlocksPerGroup <= 0 {
		p.InodeBlocksPerGroup = 2
	}
	if p.Stride <= 0 {
		p.Stride = 2
	}
	return p
}

// Errors returned by file system operations.
var (
	ErrNotFound   = errors.New("fs: no such file or directory")
	ErrExists     = errors.New("fs: file exists")
	ErrNotDir     = errors.New("fs: not a directory")
	ErrIsDir      = errors.New("fs: is a directory")
	ErrNoSpace    = errors.New("fs: no space left on device")
	ErrNoInodes   = errors.New("fs: out of inodes")
	ErrFileTooBig = errors.New("fs: file exceeds maximum size")
	ErrReadOnly   = errors.New("fs: read-only file system")
	ErrBadName    = errors.New("fs: invalid file name")
	ErrNotEmpty   = errors.New("fs: directory not empty")
	ErrBadRange   = errors.New("fs: block index out of range")
)

// inode is the in-memory (authoritative) form of an on-disk inode.
type inode struct {
	ino      Ino
	dir      bool
	size     int64 // size in blocks for regular files; entry count for dirs
	direct   [NDirect]int64
	indirect int64   // block number of the indirect block, or -1
	iblock   []int64 // in-memory copy of the indirect block pointers
	entries  map[string]Ino
	order    []string // directory entry order (on-disk slot order)
	// pages[b] is the page WriteAt built for file block b (dataPattern),
	// nil until then; only blocks below size have one. A block's content
	// is a pure function of (ino, b) and payloads are immutable, so every
	// overwrite hands the same page down. The pages leave with the inode.
	pages [][]byte
}

// group is the in-memory state of one cylinder group.
type group struct {
	base      int64 // first partition-relative block
	dataStart int64
	end       int64
	inodeUsed []bool
	dataUsed  []bool
	freeData  int
	freeIno   int
	rotor     int64 // next-fit pointer within the data region
}

// FS is a mounted file system instance.
type FS struct {
	eng   *sim.Engine
	drv   driver.BlockDevice
	part  int
	cache *cache.Cache // data blocks
	meta  *cache.Cache // inode, directory, indirect, descriptor blocks
	prm   Params

	blockBytes  int
	ptrsPerBlk  int
	inosPerBlk  int
	blocksPerGp int64
	totalBlocks int64

	groups []*group
	// inodes is the in-memory inode table, indexed by inode number (nil:
	// free slot). Inode numbers are dense — group-major, every group's
	// table the same size — so it is sized once in prepare; read it
	// through inode, which checks the number.
	inodes []*inode
	// inoBlock[ino] is the partition block holding inode ino, filled in
	// prepare: every ReadAt and every access-time touch asks, and the
	// group arithmetic costs three divisions.
	inoBlock []int64
	readOnly bool
	dirRotor uint64 // new-directory spread rotor (see allocInode)

	// inoImages holds the current serialized image of each inode-table
	// block, group-major: nil until first encoded and again after a
	// change (see encodeInodeBlock). Bounded by the inode table.
	inoImages [][]byte

	// freeRead heads the pool of ReadAt walk records (see readReq in
	// ops.go). Single-threaded like the rest of the file system.
	freeRead *readReq

	// mxRead/mxWrite are end-to-end file operation latency histograms,
	// nil until BindMetrics.
	mxRead  *metrics.Histogram
	mxWrite *metrics.Histogram
}

// Newfs formats the partition and returns a mounted file system with an
// empty root directory — the analogue of running newfs and mount. The
// format writes all metadata through the buffer cache; call Sync (or run
// the sync daemon) to push it to disk.
func Newfs(eng *sim.Engine, drv driver.BlockDevice, part int, prm Params) (*FS, error) {
	prm = prm.withDefaults()
	f, err := prepare(eng, drv, part, prm)
	if err != nil {
		return nil, err
	}
	// Mark metadata blocks used in every group.
	for _, g := range f.groups {
		g.freeData = len(g.dataUsed)
		g.freeIno = len(g.inodeUsed)
	}
	// Create the root directory in group 0.
	root := &inode{ino: RootIno, dir: true, indirect: -1, entries: make(map[string]Ino)}
	for i := range root.direct {
		root.direct[i] = -1
	}
	f.groups[0].inodeUsed[0] = true
	f.groups[0].freeIno--
	f.inodes[RootIno] = root

	// Write the initial metadata image: superblock+descriptors and the
	// root's inode block.
	var steps []step
	for gi := range f.groups {
		steps = append(steps, step{block: f.groups[gi].base, data: f.encodeDescriptor(gi), meta: true})
	}
	steps = append(steps, step{block: f.inodeBlockOf(RootIno), data: f.encodeInodeBlock(f.inodeBlockOf(RootIno)), meta: true})
	f.runSeq(steps, nil)
	return f, nil
}

// prepare builds the FS skeleton shared by Newfs and Mount.
func prepare(eng *sim.Engine, drv driver.BlockDevice, part int, prm Params) (*FS, error) {
	p, err := drv.Label().Partition(part)
	if err != nil {
		return nil, err
	}
	bs := drv.BlockSize()
	vg := drv.Label().VirtualGeom()
	blocksPerGp := int64(prm.CylsPerGroup) * int64(vg.SectorsPerCyl()) / int64(bs.Sectors())
	minGroup := int64(prm.InodeBlocksPerGroup) + 2 // descriptor + inodes + >=1 data block
	if blocksPerGp < minGroup {
		return nil, fmt.Errorf("fs: cylinder group of %d blocks too small", blocksPerGp)
	}
	total := p.Size / int64(bs.Sectors())
	ngroups := total / blocksPerGp
	if ngroups == 0 {
		return nil, fmt.Errorf("fs: partition of %d blocks smaller than one cylinder group (%d)", total, blocksPerGp)
	}
	metaCfg := prm.MetaCache
	if metaCfg.CapacityBlocks <= 0 {
		metaCfg.CapacityBlocks = 512
	}
	if metaCfg.SyncPeriodMS <= 0 {
		metaCfg.SyncPeriodMS = prm.Cache.SyncPeriodMS
	}
	inosPerBlk := bs.Bytes() / InodeSize
	f := &FS{
		eng:         eng,
		drv:         drv,
		part:        part,
		cache:       cache.New(eng, drv, part, prm.Cache),
		meta:        cache.New(eng, drv, part, metaCfg),
		prm:         prm,
		blockBytes:  bs.Bytes(),
		ptrsPerBlk:  bs.Bytes() / 8,
		inosPerBlk:  inosPerBlk,
		blocksPerGp: blocksPerGp,
		totalBlocks: ngroups * blocksPerGp,
		inodes:      make([]*inode, int(ngroups)*prm.InodeBlocksPerGroup*inosPerBlk),
		inoBlock:    make([]int64, int(ngroups)*prm.InodeBlocksPerGroup*inosPerBlk),
		inoImages:   make([][]byte, int(ngroups)*prm.InodeBlocksPerGroup),
	}
	for gi := int64(0); gi < ngroups; gi++ {
		base := gi * blocksPerGp
		dataStart := base + 1 + int64(prm.InodeBlocksPerGroup)
		end := base + blocksPerGp
		f.groups = append(f.groups, &group{
			base:      base,
			dataStart: dataStart,
			end:       end,
			inodeUsed: make([]bool, prm.InodeBlocksPerGroup*f.inosPerBlk),
			dataUsed:  make([]bool, end-dataStart),
		})
	}
	// Inode numbers are group-major, each group's table a run of inode
	// blocks right after its descriptor.
	for ino := range f.inoBlock {
		k := int64(ino / inosPerBlk) // inode-table block, counted across groups
		gi := k / int64(prm.InodeBlocksPerGroup)
		f.inoBlock[ino] = gi*blocksPerGp + 1 + k%int64(prm.InodeBlocksPerGroup)
	}
	return f, nil
}

// Cache returns the file system's data buffer cache.
func (f *FS) Cache() *cache.Cache { return f.cache }

// MetaCache returns the file system's metadata cache.
func (f *FS) MetaCache() *cache.Cache { return f.meta }

// BindMetrics registers the file system's metrics in reg: end-to-end
// ReadAt/WriteAt latency histograms (recorded from the moment of
// binding, so bind after populate) and the two caches' hit/miss/
// writeback counters under cache="data" and cache="meta" labels. Extra
// labels tell apart the file systems of one registry (two partitions
// of a shared disk).
func (f *FS) BindMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	f.mxRead = reg.Histogram("fs_read_ms", metrics.HistogramOpts{}, labels...)
	f.mxWrite = reg.Histogram("fs_write_ms", metrics.HistogramOpts{}, labels...)
	f.cache.BindMetrics(reg, "data", labels...)
	f.meta.BindMetrics(reg, "meta", labels...)
}

// StartSyncDaemon starts the periodic update policy on both caches.
func (f *FS) StartSyncDaemon() {
	f.cache.StartSyncDaemon()
	f.meta.StartSyncDaemon()
}

// StopSyncDaemon stops the update policy on both caches.
func (f *FS) StopSyncDaemon() {
	f.cache.StopSyncDaemon()
	f.meta.StopSyncDaemon()
}

// SetReadOnly switches the mount mode. On a read-only file system user
// writes fail, but the OS still performs bookkeeping writes (access-time
// updates), as the paper describes for the system file system.
func (f *FS) SetReadOnly(ro bool) { f.readOnly = ro }

// ReadOnly reports the mount mode.
func (f *FS) ReadOnly() bool { return f.readOnly }

// Groups returns the number of cylinder groups.
func (f *FS) Groups() int { return len(f.groups) }

// TotalBlocks returns the number of blocks managed by the file system.
func (f *FS) TotalBlocks() int64 { return f.totalBlocks }

// FreeBlocks returns the number of free data blocks.
func (f *FS) FreeBlocks() int64 {
	var n int64
	for _, g := range f.groups {
		n += int64(g.freeData)
	}
	return n
}

// MaxFileBlocks returns the largest supported file size in blocks.
func (f *FS) MaxFileBlocks() int64 { return NDirect + int64(f.ptrsPerBlk) }

// Sync flushes all dirty cached blocks (metadata first, then data) to
// disk.
func (f *FS) Sync(done func(error)) {
	f.meta.Sync(func(err error) {
		if err != nil {
			if done != nil {
				done(err)
			}
			return
		}
		f.cache.Sync(done)
	})
}

// inode returns the in-memory inode numbered ino, nil if that slot is
// free or ino lies outside the inode table.
func (f *FS) inode(ino Ino) *inode {
	if uint(ino) < uint(len(f.inodes)) {
		return f.inodes[ino]
	}
	return nil
}

// groupOf returns the index of the group containing partition block b.
func (f *FS) groupOf(b int64) int { return int(b / f.blocksPerGp) }

// inodeBlockOf returns the partition block holding ino's on-disk inode.
func (f *FS) inodeBlockOf(ino Ino) int64 { return f.inoBlock[ino] }

// inoOf returns the inode number for slot idx of group gi.
func (f *FS) inoOf(gi, idx int) Ino {
	return Ino(gi*len(f.groups[0].inodeUsed) + idx)
}

// step is one cache operation of an I/O sequence: a read (data == nil)
// or a write of the given serialized content. meta routes the operation
// through the metadata cache.
type step struct {
	block int64
	data  []byte
	meta  bool
}

// cacheFor selects the cache a step goes through.
func (f *FS) cacheFor(meta bool) *cache.Cache {
	if meta {
		return f.meta
	}
	return f.cache
}

// runSeq performs the steps strictly in order through the buffer cache
// and calls done with the first error (if any). It gives every file
// system operation the same I/O ordering a real kernel implementation
// would produce: metadata reads before data, one block at a time.
func (f *FS) runSeq(steps []step, done func(error)) {
	var run func(i int)
	run = func(i int) {
		if i >= len(steps) {
			if done != nil {
				done(nil)
			}
			return
		}
		s := steps[i]
		c := f.cacheFor(s.meta)
		next := func(err error) {
			if err != nil {
				if done != nil {
					done(err)
				}
				return
			}
			run(i + 1)
		}
		switch {
		case s.data == nil:
			c.Read(s.block, func(_ []byte, err error) { next(err) })
		case !s.meta && f.prm.SyncData:
			// Step buffers are never written to once encoded, so the
			// cache can take them as-is.
			c.WriteThroughOwned(s.block, s.data, next)
		default:
			c.WriteOwned(s.block, s.data, next)
		}
	}
	run(0)
}

func checkName(name string) error {
	if name == "" || len(name) > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}
