package fs

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/sim"
)

// Mount rebuilds a file system from its on-disk image: it reads the
// superblock and group descriptors, the inode tables, every directory,
// and every indirect block — all through the driver, so blocks that have
// been rearranged into the reserved region are found via the block
// table, exactly as a reboot of the paper's system would find them.
//
// The image must have been flushed (Sync) before the previous instance
// was abandoned; like a real fixed-layout file system, Mount reads only
// what is on disk.
func Mount(eng *sim.Engine, drv driver.BlockDevice, part int, prm Params, done func(*FS, error)) {
	fail := func(err error) {
		eng.After(0, func() {
			if done != nil {
				done(nil, err)
			}
		})
	}
	// Read the group-0 descriptor to learn the format parameters.
	drv.ReadBlock(part, 0, func(buf []byte, err error) {
		if err != nil {
			fail(fmt.Errorf("fs mount: reading superblock: %w", err))
			return
		}
		blockBytes, diskPrm, _, err := decodeSuper(buf)
		if err != nil {
			fail(err)
			return
		}
		if blockBytes != drv.BlockSize().Bytes() {
			fail(fmt.Errorf("fs mount: file system block size %d, driver uses %d",
				blockBytes, drv.BlockSize().Bytes()))
			return
		}
		// Layout parameters come from disk; runtime parameters (cache,
		// atime) from the caller.
		diskPrm.NoAtime = prm.NoAtime
		diskPrm.Cache = prm.Cache
		diskPrm.MetaCache = prm.MetaCache
		f, err := prepare(eng, drv, part, diskPrm)
		if err != nil {
			fail(err)
			return
		}
		f.mountGroups(0, done)
	})
}

// mountGroups reads and decodes each group descriptor in turn.
func (f *FS) mountGroups(gi int, done func(*FS, error)) {
	if gi == len(f.groups) {
		f.mountInodes(done)
		return
	}
	f.meta.Read(f.groups[gi].base, func(buf []byte, err error) {
		if err != nil {
			f.mountFail(done, err)
			return
		}
		if err := f.decodeDescriptor(gi, buf); err != nil {
			f.mountFail(done, err)
			return
		}
		f.mountGroups(gi+1, done)
	})
}

// mountInodes reads every inode-table block that holds a used inode and
// decodes the inodes.
func (f *FS) mountInodes(done func(*FS, error)) {
	type blockJob struct {
		blk   int64
		gi    int
		first int // first inode slot index of the block within its group
	}
	var jobs []blockJob
	for gi, g := range f.groups {
		for ib := 0; ib < f.prm.InodeBlocksPerGroup; ib++ {
			used := false
			for slot := 0; slot < f.inosPerBlk; slot++ {
				idx := ib*f.inosPerBlk + slot
				if idx < len(g.inodeUsed) && g.inodeUsed[idx] {
					used = true
					break
				}
			}
			if used {
				jobs = append(jobs, blockJob{blk: g.base + 1 + int64(ib), gi: gi, first: ib * f.inosPerBlk})
			}
		}
	}
	var run func(i int)
	run = func(i int) {
		if i == len(jobs) {
			f.mountContents(done)
			return
		}
		j := jobs[i]
		f.meta.Read(j.blk, func(buf []byte, err error) {
			if err != nil {
				f.mountFail(done, err)
				return
			}
			for slot := 0; slot < f.inosPerBlk; slot++ {
				idx := j.first + slot
				if idx >= len(f.groups[j.gi].inodeUsed) || !f.groups[j.gi].inodeUsed[idx] {
					continue
				}
				ino := f.inoOf(j.gi, idx)
				nd, derr := decodeInodeSlot(buf, slot, ino)
				if derr != nil {
					f.mountFail(done, derr)
					return
				}
				if nd == nil {
					f.mountFail(done, fmt.Errorf("fs mount: inode %d marked used but slot empty", ino))
					return
				}
				f.inodes[ino] = nd
			}
			run(i + 1)
		})
	}
	run(0)
}

// mountContents reads indirect blocks and directory contents.
func (f *FS) mountContents(done func(*FS, error)) {
	if f.inodes[RootIno] == nil {
		f.mountFail(done, fmt.Errorf("fs mount: no root directory"))
		return
	}
	// In inode order, which is the table's.
	var nodes []*inode
	for _, nd := range f.inodes {
		if nd != nil {
			nodes = append(nodes, nd)
		}
	}
	var run func(i int)
	run = func(i int) {
		if i == len(nodes) {
			f.eng.After(0, func() {
				if done != nil {
					done(f, nil)
				}
			})
			return
		}
		nd := nodes[i]
		next := func() { run(i + 1) }
		if nd.indirect >= 0 {
			f.meta.Read(nd.indirect, func(buf []byte, err error) {
				if err != nil {
					f.mountFail(done, err)
					return
				}
				nd.iblock = f.decodeIndirect(buf)
				if nd.dir {
					f.mountDir(nd, done, next)
					return
				}
				next()
			})
			return
		}
		if nd.dir {
			f.mountDir(nd, done, next)
			return
		}
		next()
	}
	run(0)
}

// mountDir reads a directory's data blocks and decodes its entries.
func (f *FS) mountDir(nd *inode, done func(*FS, error), next func()) {
	n := int(nd.size)
	nblocks := f.nblocksOf(nd)
	var run func(b int64)
	run = func(b int64) {
		if b == nblocks {
			next()
			return
		}
		blk := f.blockOf(nd, b)
		if blk < 0 {
			f.mountFail(done, fmt.Errorf("fs mount: directory %d missing block %d", nd.ino, b))
			return
		}
		f.meta.Read(blk, func(buf []byte, err error) {
			if err != nil {
				f.mountFail(done, err)
				return
			}
			f.decodeDirBlock(nd, int(b), buf, n)
			run(b + 1)
		})
	}
	run(0)
}

func (f *FS) mountFail(done func(*FS, error), err error) {
	f.eng.After(0, func() {
		if done != nil {
			done(nil, err)
		}
	})
}
