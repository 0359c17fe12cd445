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

// Handle is an open file or directory: a file system and an inode
// number, nothing more. OpenIno and Open hand out the inode's own
// Handle, so every open of a file returns the same pointer.
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

// nextComp returns the first component of path, skipping empty and "."
// components, and the rest of path after it; comp is "" when path has
// no component left. It walks path in place, so a path walk allocates
// nothing.
func nextComp(path string) (comp, rest string) {
	for path != "" {
		comp, path, _ = strings.Cut(path, "/")
		if comp != "" && comp != "." {
			return comp, path
		}
	}
	return "", ""
}

// resolve walks a path from the root, appending the read steps of the
// walk (inode-table blocks and directory data blocks) to steps. It
// returns the parent directory and the target inode; target is nil when
// the final component does not exist (parent is still returned so
// callers can create it).
func (f *FS) resolve(path string, steps []step) (parent *inode, name string, target *inode, _ []step, err error) {
	cur := f.inodes[RootIno]
	steps = append(steps, step{block: f.inodeBlockOf(RootIno), meta: true})
	for comp, rest := nextComp(path); comp != ""; {
		after, rest2 := nextComp(rest) // "" when comp is the final component
		if !cur.dir {
			return nil, "", nil, steps, fmt.Errorf("%w: %q", ErrNotDir, path)
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
				steps = append(steps, step{block: blk, meta: true})
			}
		}
		if slot < 0 {
			if after == "" {
				return cur, comp, nil, steps, nil
			}
			return nil, "", nil, steps, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		next := f.inode(cur.entries[comp])
		if next == nil {
			return nil, "", nil, steps, fmt.Errorf("%w: %q (dangling entry)", ErrNotFound, path)
		}
		steps = append(steps, step{block: f.inodeBlockOf(next.ino), meta: true})
		parent, name, cur = cur, comp, next
		comp, rest = after, rest2
	}
	return parent, name, cur, steps, nil
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
	r := f.getSeq()
	r.doneIno = done
	f.walk(r, path)
}

// Open resolves a path and returns a handle, with Lookup's I/O and
// access-time bookkeeping.
func (f *FS) Open(path string, done func(*Handle, error)) {
	r := f.getSeq()
	r.doneH = done
	f.walk(r, path)
}

// walk runs Lookup's and Open's path walk on r.
func (f *FS) walk(r *seqReq, path string) {
	_, _, target, steps, err := f.resolve(path, r.steps)
	r.steps = steps
	if err == nil && target == nil {
		err = fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.target, r.walk, r.path = target, true, path
	r.run()
}

// touchWalk dirties the inode blocks of the directories along a path
// (access-time updates); the update daemon flushes them later.
func (f *FS) touchWalk(path string) {
	cur := f.inodes[RootIno]
	ib := f.inodeBlockOf(RootIno)
	f.meta.WriteOwned(ib, f.encodeInodeBlock(ib), nil)
	for comp, rest := nextComp(path); comp != ""; comp, rest = nextComp(rest) {
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

// OpenIno returns a handle for a known inode number without any I/O
// (the analogue of holding an open file descriptor).
func (f *FS) OpenIno(ino Ino) (*Handle, error) {
	nd := f.inode(ino)
	if nd == nil {
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	return f.handle(nd), nil
}

// Create creates a regular file.
func (f *FS) Create(path string, done func(Ino, error)) { f.create(path, false, done) }

// Mkdir creates a directory.
func (f *FS) Mkdir(path string, done func(Ino, error)) { f.create(path, true, done) }

func (f *FS) create(path string, dir bool, done func(Ino, error)) {
	r := f.getSeq()
	r.doneIno = done
	if f.readOnly {
		r.fail(ErrReadOnly)
		return
	}
	parent, name, target, steps, err := f.resolve(path, r.steps)
	r.steps = steps
	if err != nil {
		r.fail(err)
		return
	}
	if target != nil {
		r.fail(fmt.Errorf("%w: %q", ErrExists, path))
		return
	}
	if err := checkName(name); err != nil {
		r.fail(err)
		return
	}
	perGroup := len(f.groups[0].inodeUsed)
	ino, err := f.allocInode(int(parent.ino)/perGroup, dir)
	if err != nil {
		r.fail(err)
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

	dirty := f.dirtyGroups()
	dirty[int(ino)/perGroup] = true
	r.steps, err = f.addEntry(parent, name, ino, dirty, r.steps)
	if err != nil {
		f.freeInode(ino)
		r.fail(err)
		return
	}
	r.steps = append(r.steps, step{block: f.inodeBlockOf(ino), data: f.encodeInodeBlock(f.inodeBlockOf(ino)), meta: true})
	r.steps = f.descSteps(dirty, r.steps)
	r.target = nd
	r.run()
}

// addEntry appends a directory entry, allocating a new directory data
// block when the current last block is full. It appends the write steps
// to steps.
func (f *FS) addEntry(parent *inode, name string, ino Ino, dirty []bool, steps []step) ([]step, error) {
	per := f.entriesPerBlock()
	slot := len(parent.order)
	blkIdx := slot / per
	if slot%per == 0 {
		// Need a fresh directory block.
		if int64(blkIdx) >= int64(NDirect) {
			return steps, fmt.Errorf("%w: directory %d", ErrFileTooBig, parent.ino)
		}
		prev := int64(-1)
		if blkIdx > 0 {
			prev = parent.direct[blkIdx-1]
		}
		perGroup := len(f.groups[0].inodeUsed)
		b, err := f.allocData(int(parent.ino)/perGroup, prev)
		if err != nil {
			return steps, err
		}
		parent.direct[blkIdx] = b
		dirty[f.groupOf(b)] = true
	}
	parent.entries[name] = ino
	parent.order = append(parent.order, name)
	parent.size = int64(len(parent.order))
	f.inodeChanged(parent.ino)
	return append(steps,
		step{block: parent.direct[blkIdx], data: f.encodeDirBlock(parent, blkIdx), meta: true},
		step{block: f.inodeBlockOf(parent.ino), data: f.encodeInodeBlock(f.inodeBlockOf(parent.ino)), meta: true},
	), nil
}

// dirtyGroups returns the file system's set of cylinder groups whose
// bitmaps an operation changed, indexed by group, emptied: scratch for
// one operation, which fills it and hands it to descSteps before it
// returns.
func (f *FS) dirtyGroups() []bool {
	clear(f.dirty)
	return f.dirty
}

// descSteps appends descriptor write-back steps for groups whose
// bitmaps changed to steps, in ascending group order.
func (f *FS) descSteps(dirty []bool, steps []step) []step {
	for gi, d := range dirty {
		if d {
			steps = append(steps, step{block: f.groups[gi].base, data: f.encodeDescriptor(gi), meta: true})
		}
	}
	return steps
}

// ReadDir lists a directory's entries in on-disk order, reading the
// directory's blocks.
func (f *FS) ReadDir(path string, done func([]string, error)) {
	r := f.getSeq()
	r.doneDir = done
	_, _, target, steps, err := f.resolve(path, r.steps)
	r.steps = steps
	if err == nil && target == nil {
		err = fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if err == nil && !target.dir {
		err = fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	if err != nil {
		r.fail(err)
		return
	}
	for b, n := int64(0), f.nblocksOf(target); b < n; b++ {
		if blk := f.blockOf(target, b); blk >= 0 {
			r.steps = append(r.steps, step{block: blk, meta: true})
		}
	}
	r.names = append([]string(nil), target.order...)
	r.run()
}

// WriteAt writes (or overwrites) n blocks of the file starting at file
// block idx. Writing may extend the file, but not leave holes: idx must
// not exceed the current size. Block contents are the deterministic
// per-block pattern, a window of the file system's tape (dataPattern),
// so later reads can be integrity-checked.
func (h *Handle) WriteAt(idx, n int64, done func(error)) {
	f := h.f
	r := f.getSeq()
	r.done = done
	if f.readOnly {
		r.fail(ErrReadOnly)
		return
	}
	nd := f.inode(h.ino)
	if nd == nil {
		r.fail(fmt.Errorf("%w: inode %d", ErrNotFound, h.ino))
		return
	}
	if nd.dir {
		r.fail(ErrIsDir)
		return
	}
	if idx < 0 || n <= 0 || idx > nd.size {
		r.fail(fmt.Errorf("%w: write [%d,+%d) of %d-block file", ErrBadRange, idx, n, nd.size))
		return
	}
	if idx+n > f.MaxFileBlocks() {
		r.fail(ErrFileTooBig)
		return
	}
	if f.mxWrite != nil {
		r.hist, r.startMS = f.mxWrite, f.eng.Now()
	}

	perGroup := len(f.groups[0].inodeUsed)
	gi := int(h.ino) / perGroup
	dirty := f.dirtyGroups()
	// The inode is read first.
	r.steps = append(r.steps, step{block: f.inodeBlockOf(h.ino), meta: true})
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
		r.fail(err)
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
			r.steps = append(r.steps, step{block: nd.indirect, meta: true})
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
		r.steps = append(r.steps, step{block: blk, data: f.dataPattern(h.ino, b)})
	}
	if idx+n > nd.size {
		nd.size = idx + n
		f.inodeChanged(h.ino)
	}
	if indirectTouched {
		r.steps = append(r.steps, step{block: nd.indirect, data: f.encodeIndirect(nd.iblock), meta: true})
	}
	// Inode update (size, mtime).
	r.steps = append(r.steps, step{block: f.inodeBlockOf(h.ino), data: f.encodeInodeBlock(f.inodeBlockOf(h.ino)), meta: true})
	r.steps = f.descSteps(dirty, r.steps)
	r.run()
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
// The blocks in the result are the buffer cache's read-only copies:
// not to be modified, and valid for as long as the caller keeps them.
// The slice holding them is the step record's own and is valid until
// done returns; a caller that keeps it copies the slice (not the blocks).
func (h *Handle) ReadAt(idx, n int64, done func([][]byte, error)) {
	f := h.f
	r := f.getSeq()
	r.doneData, r.read = done, true
	nd := f.inode(h.ino)
	if nd == nil {
		r.fail(fmt.Errorf("%w: inode %d", ErrNotFound, h.ino))
		return
	}
	if nd.dir {
		r.fail(ErrIsDir)
		return
	}
	if idx < 0 || n <= 0 || idx+n > nd.size {
		r.fail(fmt.Errorf("%w: read [%d,+%d) of %d-block file", ErrBadRange, idx, n, nd.size))
		return
	}
	if f.mxRead != nil {
		r.hist, r.startMS = f.mxRead, f.eng.Now()
	}
	// The inode and indirect blocks are read first, then the data blocks.
	r.readStep(f.inodeBlockOf(h.ino), true)
	if idx+n > NDirect {
		r.readStep(nd.indirect, true)
	}
	r.target, r.b, r.end = nd, idx, idx+n
	r.run()
}

// Remove deletes a file or an empty directory, freeing its blocks.
func (f *FS) Remove(path string, done func(error)) {
	r := f.getSeq()
	r.done = done
	if f.readOnly {
		r.fail(ErrReadOnly)
		return
	}
	parent, name, target, steps, err := f.resolve(path, r.steps)
	r.steps = steps
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
		r.fail(err)
		return
	}

	dirty := f.dirtyGroups()
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

	r.steps = append(r.steps, step{block: parent.direct[slot/per], data: f.encodeDirBlock(parent, slot/per), meta: true})
	if last/per != slot/per {
		r.steps = append(r.steps, step{block: parent.direct[last/per], data: f.encodeDirBlock(parent, last/per), meta: true})
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
	r.steps = append(r.steps,
		step{block: f.inodeBlockOf(parent.ino), data: f.encodeInodeBlock(f.inodeBlockOf(parent.ino)), meta: true},
		step{block: targetIB, data: f.encodeInodeBlock(targetIB), meta: true},
	)
	r.steps = f.descSteps(dirty, r.steps)
	r.run()
}
