package fs

import (
	"fmt"
	"strings"
)

// File system operations. Every operation issues the block I/O a real
// FFS implementation would — inode-table blocks, directory data blocks,
// indirect blocks, data blocks, cylinder-group descriptors — through the
// buffer cache, in kernel order (metadata lookups first), and completes
// asynchronously in simulated time.

// Handle is an open file or directory.
type Handle struct {
	f   *FS
	ino Ino
}

// Ino returns the handle's inode number.
func (h *Handle) Ino() Ino { return h.ino }

// IsDir reports whether the handle is a directory.
func (h *Handle) IsDir() bool {
	nd := h.f.inode(h.ino)
	return nd != nil && nd.dir
}

// SizeBlocks returns the file's size in blocks (0 for directories).
func (h *Handle) SizeBlocks() int64 {
	nd := h.f.inode(h.ino)
	if nd == nil || nd.dir {
		return 0
	}
	return nd.size
}

// split parses a path into components.
func split(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

// resolve walks a path from the root, building the read steps of the
// walk (inode-table blocks and directory data blocks). It returns the
// parent directory and the target inode; target is nil when the final
// component does not exist (parent is still returned so callers can
// create it).
func (f *FS) resolve(path string) (parent *inode, name string, target *inode, rsteps []step, err error) {
	comps := split(path)
	cur := f.inodes[RootIno]
	rsteps = append(rsteps, step{block: f.inodeBlockOf(RootIno), meta: true})
	if len(comps) == 0 {
		return nil, "", cur, rsteps, nil
	}
	for i, comp := range comps {
		if !cur.dir {
			return nil, "", nil, rsteps, fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		slot := indexOf(cur.order, comp)
		// A real lookup scans directory blocks until the entry (or the
		// end, for a miss).
		lastBlk := int(f.nblocksOf(cur)) - 1
		if slot >= 0 {
			lastBlk = slot / f.entriesPerBlock()
		}
		for b := 0; b <= lastBlk; b++ {
			if blk := f.blockOf(cur, int64(b)); blk >= 0 {
				rsteps = append(rsteps, step{block: blk, meta: true})
			}
		}
		if slot < 0 {
			if i == len(comps)-1 {
				return cur, comp, nil, rsteps, nil
			}
			return nil, "", nil, rsteps, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		next := f.inode(cur.entries[comp])
		if next == nil {
			return nil, "", nil, rsteps, fmt.Errorf("%w: %q (dangling entry)", ErrNotFound, path)
		}
		rsteps = append(rsteps, step{block: f.inodeBlockOf(next.ino), meta: true})
		parent, name, cur = cur, comp, next
	}
	return parent, name, cur, rsteps, nil
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

// Lookup resolves a path to an inode number, performing the walk's I/O.
// Unless the file system was created with NoAtime, the walk dirties the
// access times of the directories it traverses — bookkeeping writes that
// occur even on read-only mounts (Section 3.1 of the paper).
func (f *FS) Lookup(path string, done func(Ino, error)) {
	_, _, target, rsteps, err := f.resolve(path)
	if err == nil && target == nil {
		err = fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err != nil {
		f.fail2(done, err)
		return
	}
	f.runSeq(rsteps, func(serr error) {
		if serr == nil && !f.prm.NoAtime {
			f.touchWalk(path)
		}
		if done != nil {
			done(target.ino, serr)
		}
	})
}

// touchWalk dirties the inode blocks of the directories along a path
// (access-time updates); the update daemon flushes them later.
func (f *FS) touchWalk(path string) {
	cur := f.inodes[RootIno]
	ib := f.inodeBlockOf(RootIno)
	f.meta.WriteOwned(ib, f.encodeInodeBlock(ib), nil)
	for _, comp := range split(path) {
		next, ok := cur.entries[comp]
		if !ok {
			return
		}
		nd := f.inode(next)
		if nd == nil || !nd.dir {
			return
		}
		ib := f.inodeBlockOf(nd.ino)
		f.meta.WriteOwned(ib, f.encodeInodeBlock(ib), nil)
		cur = nd
	}
}

// Open resolves a path and returns a handle.
func (f *FS) Open(path string, done func(*Handle, error)) {
	f.Lookup(path, func(ino Ino, err error) {
		if done == nil {
			return
		}
		if err != nil {
			done(nil, err)
			return
		}
		done(&Handle{f: f, ino: ino}, nil)
	})
}

// OpenIno returns a handle for a known inode number without any I/O
// (the analogue of holding an open file descriptor).
func (f *FS) OpenIno(ino Ino) (*Handle, error) {
	if f.inode(ino) == nil {
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return &Handle{f: f, ino: ino}, nil
}

// Create creates a regular file.
func (f *FS) Create(path string, done func(Ino, error)) { f.create(path, false, done) }

// Mkdir creates a directory.
func (f *FS) Mkdir(path string, done func(Ino, error)) { f.create(path, true, done) }

func (f *FS) create(path string, dir bool, done func(Ino, error)) {
	if f.readOnly {
		f.fail2(done, ErrReadOnly)
		return
	}
	parent, name, target, rsteps, err := f.resolve(path)
	if err != nil {
		f.fail2(done, err)
		return
	}
	if target != nil {
		f.fail2(done, fmt.Errorf("%w: %q", ErrExists, path))
		return
	}
	if err := checkName(name); err != nil {
		f.fail2(done, err)
		return
	}
	perGroup := len(f.groups[0].inodeUsed)
	ino, err := f.allocInode(int(parent.ino)/perGroup, dir)
	if err != nil {
		f.fail2(done, err)
		return
	}
	nd := &inode{ino: ino, dir: dir, indirect: -1}
	for i := range nd.direct {
		nd.direct[i] = -1
	}
	if dir {
		nd.entries = make(map[string]Ino)
	}
	f.inodes[ino] = nd
	f.inodeChanged(ino)

	dirty := map[int]bool{int(ino) / perGroup: true}
	wsteps, err := f.addEntry(parent, name, ino, dirty)
	if err != nil {
		f.freeInode(ino)
		f.fail2(done, err)
		return
	}
	wsteps = append(wsteps, step{block: f.inodeBlockOf(ino), data: f.encodeInodeBlock(f.inodeBlockOf(ino)), meta: true})
	wsteps = append(wsteps, f.descSteps(dirty)...)
	f.runSeq(append(rsteps, wsteps...), func(serr error) {
		if done != nil {
			done(ino, serr)
		}
	})
}

// addEntry appends a directory entry, allocating a new directory data
// block when the current last block is full. It returns the write steps.
func (f *FS) addEntry(parent *inode, name string, ino Ino, dirty map[int]bool) ([]step, error) {
	per := f.entriesPerBlock()
	slot := len(parent.order)
	blkIdx := slot / per
	if slot%per == 0 {
		// Need a fresh directory block.
		if int64(blkIdx) >= int64(NDirect) {
			return nil, fmt.Errorf("%w: directory %d", ErrFileTooBig, parent.ino)
		}
		prev := int64(-1)
		if blkIdx > 0 {
			prev = parent.direct[blkIdx-1]
		}
		perGroup := len(f.groups[0].inodeUsed)
		b, err := f.allocData(int(parent.ino)/perGroup, prev)
		if err != nil {
			return nil, err
		}
		parent.direct[blkIdx] = b
		dirty[f.groupOf(b)] = true
	}
	parent.entries[name] = ino
	parent.order = append(parent.order, name)
	parent.size = int64(len(parent.order))
	f.inodeChanged(parent.ino)
	return []step{
		{block: parent.direct[blkIdx], data: f.encodeDirBlock(parent, blkIdx), meta: true},
		{block: f.inodeBlockOf(parent.ino), data: f.encodeInodeBlock(f.inodeBlockOf(parent.ino)), meta: true},
	}, nil
}

// descSteps produces descriptor write-back steps for groups whose
// bitmaps changed.
func (f *FS) descSteps(dirty map[int]bool) []step {
	var out []step
	for gi := range f.groups {
		if dirty[gi] {
			out = append(out, step{block: f.groups[gi].base, data: f.encodeDescriptor(gi), meta: true})
		}
	}
	return out
}

// ReadDir lists a directory's entries in on-disk order, reading the
// directory's blocks.
func (f *FS) ReadDir(path string, done func([]string, error)) {
	_, _, target, rsteps, err := f.resolve(path)
	if err == nil && target == nil {
		err = fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err == nil && !target.dir {
		err = fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	if err != nil {
		f.eng.After(0, func() {
			if done != nil {
				done(nil, err)
			}
		})
		return
	}
	for b, n := int64(0), f.nblocksOf(target); b < n; b++ {
		if blk := f.blockOf(target, b); blk >= 0 {
			rsteps = append(rsteps, step{block: blk, meta: true})
		}
	}
	names := append([]string(nil), target.order...)
	f.runSeq(rsteps, func(serr error) {
		if done != nil {
			done(names, serr)
		}
	})
}

// WriteAt writes (or overwrites) n blocks of the file starting at file
// block idx. Writing may extend the file, but not leave holes: idx must
// not exceed the current size. Block contents are the deterministic
// per-block pattern, so later reads can be integrity-checked.
func (h *Handle) WriteAt(idx, n int64, done func(error)) {
	f := h.f
	if f.readOnly {
		f.fail1(done, ErrReadOnly)
		return
	}
	nd := f.inode(h.ino)
	if nd == nil {
		f.fail1(done, fmt.Errorf("%w: inode %d", ErrNotFound, h.ino))
		return
	}
	if nd.dir {
		f.fail1(done, ErrIsDir)
		return
	}
	if idx < 0 || n <= 0 || idx > nd.size {
		f.fail1(done, fmt.Errorf("%w: write [%d,+%d) of %d-block file", ErrBadRange, idx, n, nd.size))
		return
	}
	if idx+n > f.MaxFileBlocks() {
		f.fail1(done, ErrFileTooBig)
		return
	}
	if f.mxWrite != nil {
		start := f.eng.Now()
		inner := done
		done = func(err error) {
			f.mxWrite.Record(f.eng.Now() - start)
			if inner != nil {
				inner(err)
			}
		}
	}

	perGroup := len(f.groups[0].inodeUsed)
	gi := int(h.ino) / perGroup
	dirty := map[int]bool{}
	steps := []step{{block: f.inodeBlockOf(h.ino), meta: true}} // read inode first
	indirectTouched := false
	indirectRead := false

	// Nothing reaches the cache until every block of the extent is
	// allocated, so running out of space part way must leave no trace:
	// noSpace hands back the blocks taken so far and restores the inode's
	// pointers, or the next write of this inode block (a mere atime
	// touch of a neighbour) would persist a half-grown file.
	type grown struct{ b, blk int64 } // file block b was given blk
	var grew []grown
	oldIndirect, oldIblockLen := nd.indirect, len(nd.iblock)
	noSpace := func(err error) {
		for _, a := range grew {
			f.freeData(a.blk)
			if a.b < NDirect {
				nd.direct[a.b] = -1
			}
		}
		nd.iblock = nd.iblock[:oldIblockLen] // files have no holes: new entries were appended
		if nd.indirect != oldIndirect {
			f.freeData(nd.indirect)
			nd.indirect = oldIndirect
		}
		f.inodeChanged(h.ino)
		f.fail1(done, err)
	}

	for b := idx; b < idx+n; b++ {
		if b >= NDirect && nd.indirect < 0 {
			ib, err := f.allocData(gi, -1)
			if err != nil {
				noSpace(err)
				return
			}
			nd.indirect = ib
			f.inodeChanged(h.ino)
			dirty[f.groupOf(ib)] = true
			indirectTouched = true
		}
		if b >= NDirect && !indirectRead && !indirectTouched {
			steps = append(steps, step{block: nd.indirect, meta: true})
			indirectRead = true
		}
		blk := f.blockOf(nd, b)
		if blk < 0 {
			prev := int64(-1)
			if b > 0 {
				prev = f.blockOf(nd, b-1)
			}
			var err error
			blk, err = f.allocData(gi, prev)
			if err != nil {
				noSpace(err)
				return
			}
			grew = append(grew, grown{b, blk})
			dirty[f.groupOf(blk)] = true
			if b < NDirect {
				nd.direct[b] = blk
				f.inodeChanged(h.ino)
			} else {
				for int64(len(nd.iblock)) <= b-NDirect {
					nd.iblock = append(nd.iblock, -1)
				}
				nd.iblock[b-NDirect] = blk
				indirectTouched = true
			}
		}
		steps = append(steps, step{block: blk, data: f.dataPattern(h.ino, b)})
	}
	if idx+n > nd.size {
		nd.size = idx + n
		f.inodeChanged(h.ino)
	}
	if indirectTouched {
		steps = append(steps, step{block: nd.indirect, data: f.encodeIndirect(nd.iblock), meta: true})
	}
	// Inode update (size, mtime).
	steps = append(steps, step{block: f.inodeBlockOf(h.ino), data: f.encodeInodeBlock(f.inodeBlockOf(h.ino)), meta: true})
	steps = append(steps, f.descSteps(dirty)...)
	f.runSeq(steps, done)
}

// Append extends the file by n blocks.
func (h *Handle) Append(n int64, done func(error)) {
	h.WriteAt(h.SizeBlocks(), n, done)
}

// ReadAt reads n blocks starting at file block idx, returning one byte
// slice per block. Unless the file system was created with NoAtime, the
// read dirties the file's inode block (the access-time bookkeeping that
// generates write traffic even on read-only mounts).
//
// The result is borrowed: the slice and the blocks in it belong to the
// buffer cache, are not to be modified, and are valid until done
// returns. A caller that keeps any of it copies it inside done.
func (h *Handle) ReadAt(idx, n int64, done func([][]byte, error)) {
	f := h.f
	nd := f.inode(h.ino)
	fail := func(err error) {
		f.eng.After(0, func() {
			if done != nil {
				done(nil, err)
			}
		})
	}
	if nd == nil {
		fail(fmt.Errorf("%w: inode %d", ErrNotFound, h.ino))
		return
	}
	if nd.dir {
		fail(ErrIsDir)
		return
	}
	if idx < 0 || n <= 0 || idx+n > nd.size {
		fail(fmt.Errorf("%w: read [%d,+%d) of %d-block file", ErrBadRange, idx, n, nd.size))
		return
	}
	r := f.getRead()
	if f.mxRead != nil {
		r.startMS = f.eng.Now()
	}
	r.nd, r.ino, r.idx, r.n, r.b = nd, h.ino, idx, n, idx
	r.done = done
	r.meta[0] = f.inodeBlockOf(h.ino)
	r.mn, r.mi = 1, 0
	if idx+n > NDirect {
		r.meta[1], r.mn = nd.indirect, 2
	}
	f.meta.Read(r.meta[0], r.metaCB)
}

// readReq is one ReadAt in flight. A file read walks up to two
// metadata blocks and then each data block strictly in sequence, one
// cache read per completion; building that walk from closures
// allocated a fresh chain per call — the hottest allocation site in
// the whole stack, per the volume-scale profile. The record carries
// the walk state with two prebuilt callbacks instead, and the result
// slice as well: every block of it stays on loan from the cache until
// done has returned (see finish), so nothing is allocated per read.
type readReq struct {
	f      *FS
	next   *readReq
	nd     *inode
	ino    Ino
	idx, n int64
	b      int64 // next file block to read
	// startMS is the walk's start time, set only while read-latency
	// metrics are bound.
	startMS float64
	out     [][]byte // the data blocks read so far, in file order
	blks    []int64  // blks[i] is the partition block out[i] is a loan of
	done    func([][]byte, error)
	meta    [2]int64 // metadata prelude: inode block, then indirect
	mi, mn  int
	metaCB  func([]byte, error)
	dataCB  func([]byte, error)
}

// getRead pops a walk record off the pool, building its callbacks on
// first use.
func (f *FS) getRead() *readReq {
	r := f.freeRead
	if r == nil {
		r = &readReq{f: f}
		r.metaCB = func(data []byte, err error) {
			// The walk looks at no byte of a metadata block, so that
			// loan ends at once.
			r.f.meta.Release(r.meta[r.mi], data)
			if err != nil {
				r.finish(err)
				return
			}
			if r.mi++; r.mi < r.mn {
				r.f.meta.Read(r.meta[r.mi], r.metaCB)
				return
			}
			r.step()
		}
		r.dataCB = func(data []byte, err error) {
			if err != nil {
				r.finish(err)
				return
			}
			r.out = append(r.out, data)
			r.b++
			r.step()
		}
	} else {
		f.freeRead = r.next
	}
	return r
}

// step issues the next data-block read, or finishes the walk — with
// the access-time inode write-back first, exactly as before pooling.
func (r *readReq) step() {
	if r.b == r.idx+r.n {
		f := r.f
		if !f.prm.NoAtime {
			ib := f.inodeBlockOf(r.ino)
			f.meta.WriteOwned(ib, f.encodeInodeBlock(ib), nil)
		}
		r.finish(nil)
		return
	}
	blk := r.f.blockOf(r.nd, r.b)
	r.blks = append(r.blks, blk)
	r.f.cache.Read(blk, r.dataCB)
}

// finish completes the walk: done sees the blocks read (nil with an
// error), and only when it has returned do their loans end and the
// record go back to the pool — a block the cache evicted during the walk
// was kept out of the read pool for exactly this long. A read that done
// itself issues therefore takes another record.
func (r *readReq) finish(err error) {
	f := r.f
	if f.mxRead != nil {
		f.mxRead.Record(f.eng.Now() - r.startMS)
	}
	if r.done != nil {
		out := r.out
		if err != nil {
			out = nil
		}
		r.done(out, err)
	}
	for i, data := range r.out {
		f.cache.Release(r.blks[i], data)
		r.out[i] = nil
	}
	r.out, r.blks = r.out[:0], r.blks[:0]
	r.nd, r.done = nil, nil
	r.next, f.freeRead = f.freeRead, r
}

// Remove deletes a file or an empty directory, freeing its blocks.
func (f *FS) Remove(path string, done func(error)) {
	if f.readOnly {
		f.fail1(done, ErrReadOnly)
		return
	}
	parent, name, target, rsteps, err := f.resolve(path)
	if err == nil && target == nil {
		err = fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err == nil && parent == nil {
		err = fmt.Errorf("fs: cannot remove the root directory")
	}
	if err == nil && target.dir && len(target.order) > 0 {
		err = fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	if err != nil {
		f.fail1(done, err)
		return
	}

	dirty := map[int]bool{}
	// Free the target's blocks.
	for _, b := range f.fileBlocks(target) {
		f.freeData(b)
		f.cache.Invalidate(b)
		dirty[f.groupOf(b)] = true
	}
	if target.indirect >= 0 {
		f.freeData(target.indirect)
		f.meta.Invalidate(target.indirect)
		dirty[f.groupOf(target.indirect)] = true
	}
	targetIno := target.ino
	targetIB := f.inodeBlockOf(targetIno)
	perGroup := len(f.groups[0].inodeUsed)
	dirty[int(targetIno)/perGroup] = true
	f.freeInode(targetIno)

	// Remove the directory entry with swap-from-last compaction.
	per := f.entriesPerBlock()
	slot := indexOf(parent.order, name)
	last := len(parent.order) - 1
	lastName := parent.order[last]
	parent.order[slot] = lastName
	parent.order = parent.order[:last]
	delete(parent.entries, name)
	parent.size = int64(len(parent.order))

	var wsteps []step
	wsteps = append(wsteps, step{block: parent.direct[slot/per], data: f.encodeDirBlock(parent, slot/per), meta: true})
	if last/per != slot/per {
		wsteps = append(wsteps, step{block: parent.direct[last/per], data: f.encodeDirBlock(parent, last/per), meta: true})
	}
	// Free the parent's last directory block if it emptied.
	if last%per == 0 && last/per > 0 {
		freed := parent.direct[last/per]
		parent.direct[last/per] = -1
		f.freeData(freed)
		f.meta.Invalidate(freed)
		dirty[f.groupOf(freed)] = true
	}
	f.inodeChanged(parent.ino)
	wsteps = append(wsteps,
		step{block: f.inodeBlockOf(parent.ino), data: f.encodeInodeBlock(f.inodeBlockOf(parent.ino)), meta: true},
		step{block: targetIB, data: f.encodeInodeBlock(targetIB), meta: true},
	)
	wsteps = append(wsteps, f.descSteps(dirty)...)
	f.runSeq(append(rsteps, wsteps...), done)
}

func (f *FS) fail1(done func(error), err error) {
	f.eng.After(0, func() {
		if done != nil {
			done(err)
		}
	})
}

func (f *FS) fail2(done func(Ino, error), err error) {
	f.eng.After(0, func() {
		if done != nil {
			done(0, err)
		}
	})
}
