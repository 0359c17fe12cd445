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
	// NoAtime turns off UNIX access-time bookkeeping: when set, reads
	// (ReadAt) and path walks (Lookup, Open) no longer dirty the inode
	// blocks of the file and of the directories they pass through, as
	// on a noatime mount. The zero value keeps access times.
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
	// h is the inode's one Handle, which OpenIno and Open hand out (see
	// handle): a Handle is only (file system, inode number), so every
	// open of the inode can share it.
	h Handle
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

	// freeRead and freeSeq head the pools of ReadAt walk records (see
	// readReq in ops.go) and of step records (see seqReq).
	// Single-threaded like the rest of the file system.
	freeRead *readReq
	freeSeq  *seqReq

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
	r := f.getSeq()
	for gi := range f.groups {
		r.steps = append(r.steps, step{block: f.groups[gi].base, data: f.encodeDescriptor(gi), meta: true})
	}
	r.steps = append(r.steps, step{block: f.inodeBlockOf(RootIno), data: f.encodeInodeBlock(f.inodeBlockOf(RootIno)), meta: true})
	r.run()
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

// handle returns nd's Handle. It fills the Handle in on every call, so
// no site that builds an inode has to.
func (f *FS) handle(nd *inode) *Handle {
	nd.h = Handle{f: f, ino: nd.ino}
	return &nd.h
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

// seqReq is one file system operation in flight: the steps it runs
// strictly in order through the buffer cache — metadata reads before
// data, one block at a time, the I/O ordering a real kernel
// implementation would produce — and the completion it owes its caller.
// Building that chain from closures cost a closure per step and per
// call, most of what a simulated day allocated; like readReq, the record
// is pooled instead, with its step buffer reused and its two cache
// callbacks built once. An operation takes a record (getSeq), sets one
// done callback, appends its steps and starts them (run), or schedules
// its failure (fail). Either way the record goes back to the pool only
// after done has returned, so an operation that done itself starts
// takes another record.
type seqReq struct {
	f     *FS
	next  *seqReq
	steps []step
	i     int   // the step in flight
	err   error // the failure fail scheduled

	// At most one done callback is set. target, when set, is what the
	// operation found or made: Lookup and create hand on its number,
	// Open its handle. names is ReadDir's listing.
	done    func(error)
	doneIno func(Ino, error)
	doneH   func(*Handle, error)
	doneDir func([]string, error)
	target  *inode
	names   []string
	// walk marks a path lookup (Lookup, Open): when its steps succeed,
	// the directories along path get their access times dirtied before
	// done runs.
	walk bool
	path string
	// hist, when set, records the operation's latency from startMS
	// (WriteAt, while write-latency metrics are bound).
	hist    *metrics.Histogram
	startMS float64

	readCB  func([]byte, error)
	writeCB func(error)
}

// getSeq pops a step record off the pool, building its callbacks on
// first use.
func (f *FS) getSeq() *seqReq {
	r := f.freeSeq
	if r == nil {
		r = &seqReq{f: f}
		r.writeCB = r.stepDone
		r.readCB = func(_ []byte, err error) { r.stepDone(err) }
	} else {
		f.freeSeq = r.next
	}
	return r
}

// run starts the record's steps.
func (r *seqReq) run() {
	r.i = 0
	r.issue()
}

// issue hands the cache the step in flight, or finishes the operation
// when none is left.
func (r *seqReq) issue() {
	if r.i == len(r.steps) {
		r.finish(nil)
		return
	}
	s := &r.steps[r.i]
	c := r.f.cacheFor(s.meta)
	switch {
	case s.data == nil:
		c.Read(s.block, r.readCB)
	case !s.meta && r.f.prm.SyncData:
		// Step buffers are never written to once encoded, so the
		// cache can take them as-is.
		c.WriteThroughOwned(s.block, s.data, r.writeCB)
	default:
		c.WriteOwned(s.block, s.data, r.writeCB)
	}
}

// stepDone completes one step: the first error ends the operation.
func (r *seqReq) stepDone(err error) {
	if err != nil {
		r.finish(err)
		return
	}
	r.i++
	r.issue()
}

// fail completes the operation with err as a zero-delay event — one
// event, as a failed operation has always taken.
func (r *seqReq) fail(err error) {
	r.err = err
	r.f.eng.AfterCall(0, r)
}

// Call implements sim.Caller: the failure fail scheduled.
func (r *seqReq) Call() { r.finish(r.err) }

// finish completes the operation — the latency sample, then a walk's
// access-time touch, then done — and returns the record to the pool.
func (r *seqReq) finish(err error) {
	f := r.f
	if r.hist != nil {
		r.hist.Record(f.eng.Now() - r.startMS)
	}
	if err == nil && r.walk && !f.prm.NoAtime {
		f.touchWalk(r.path)
	}
	var ino Ino
	if r.target != nil {
		ino = r.target.ino
	}
	switch {
	case r.done != nil:
		r.done(err)
	case r.doneIno != nil:
		r.doneIno(ino, err)
	case r.doneH != nil:
		if err != nil {
			r.doneH(nil, err)
		} else {
			r.doneH(f.handle(r.target), nil)
		}
	case r.doneDir != nil:
		r.doneDir(r.names, err)
	}
	clear(r.steps) // the steps hold pages and images
	*r = seqReq{f: f, next: f.freeSeq, steps: r.steps[:0], readCB: r.readCB, writeCB: r.writeCB}
	f.freeSeq = r
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
