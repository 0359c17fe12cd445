package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/rig"
)

// checkBlockDecodes asserts that the current image of inode-table block
// blk decodes, slot by slot, to exactly the in-memory inodes of that
// block: no slot lost, none left behind.
func checkBlockDecodes(t *testing.T, f *FS, blk int64, when string) {
	t.Helper()
	img := f.encodeInodeBlock(blk)
	gi := f.groupOf(blk)
	first := int(blk-f.groups[gi].base-1) * f.inosPerBlk
	for slot := 0; slot < f.inosPerBlk; slot++ {
		ino := f.inoOf(gi, first+slot)
		got, err := decodeInodeSlot(img, slot, ino)
		if err != nil {
			t.Fatalf("%s: slot %d: %v", when, slot, err)
		}
		want := f.inodes[ino]
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: inode %d: on-disk present=%v, in-memory present=%v", when, ino, got != nil, want != nil)
		}
		if got == nil {
			continue
		}
		if got.dir != want.dir || got.size != want.size || got.indirect != want.indirect || got.direct != want.direct {
			t.Fatalf("%s: inode %d decodes as dir=%v size=%d indirect=%d direct=%v, in memory dir=%v size=%d indirect=%d direct=%v",
				when, ino, got.dir, got.size, got.indirect, got.direct, want.dir, want.size, want.indirect, want.direct)
		}
	}
}

// Every kind of inode mutation, applied to inodes that share one
// inode-table block: after each, the block's image must match the
// oracle, every sibling slot must survive, and the image handed out
// before the change must still hold the bytes it was handed out with.
func TestInodeImageMutationSites(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/d")
	a := mustCreate(t, r, f, "/d/a")
	b := mustCreate(t, r, f, "/d/b")
	dh := mustOpen(t, r, f, "/d")
	blk := f.inodeBlockOf(a)
	if f.inodeBlockOf(b) != blk || f.inodeBlockOf(dh.Ino()) != blk {
		t.Fatalf("inodes %d, %d and their directory %d do not share an inode block", a, b, dh.Ino())
	}
	ha, _ := f.OpenIno(a)

	steps := []struct {
		name    string
		do      func()
		rebuilt bool // whether the block's image must have been replaced
	}{
		{"size and direct pointers", func() { mustWrite(t, r, ha, 0, 3) }, true},
		{"indirect pointer", func() { mustWrite(t, r, ha, 3, NDirect) }, true},
		{"overwrite in place", func() { mustWrite(t, r, ha, 1, 2) }, false},
		{"access-time touch", func() { mustRead(t, r, ha, 0, 2) }, false},
		{"alloc", func() { mustCreate(t, r, f, "/d/c") }, true},
		{"dir flag", func() {
			// A new directory's inode goes to another group (allocInode
			// spreads them); the file under it then shares its block.
			mustMkdir(t, r, f, "/d/sub")
			mustCreate(t, r, f, "/d/sub/x")
			sub := mustOpen(t, r, f, "/d/sub")
			checkBlockDecodes(t, f, f.inodeBlockOf(sub.Ino()), "dir flag: new directory's block")
		}, true},
		{"free", func() { mustRemove(t, r, f, "/d/b") }, true},
	}
	for _, st := range steps {
		held := f.encodeInodeBlock(blk)
		snapshot := append([]byte(nil), held...)
		st.do()
		now := f.encodeInodeBlock(blk)
		if !bytes.Equal(held, snapshot) {
			t.Fatalf("%s: the image handed out before the change was modified in place", st.name)
		}
		if rebuilt := &now[0] != &held[0]; rebuilt != st.rebuilt {
			t.Fatalf("%s: image rebuilt = %v, want %v", st.name, rebuilt, st.rebuilt)
		}
		checkImages(t, f)
		checkBlockDecodes(t, f, blk, st.name)
	}
	if f.inodes[b] != nil || f.inodes[a] == nil || f.inodes[a].size != 3+NDirect {
		t.Fatalf("final state: inode %d present=%v, inode %d = %+v", b, f.inodes[b] != nil, a, f.inodes[a])
	}
}

// A write that runs out of space part way through its extent must leave
// no trace: the blocks it had taken go back, the inode keeps its old
// pointers, and a later write of the same inode block (here the atime
// touch of a neighbour) puts nothing half-grown on disk.
func TestWriteNoSpaceRollsBack(t *testing.T) {
	// A one-group partition fills up quickly.
	r, f := newFSWith(t, rig.Options{ReservedCyls: 48, PartitionBlocks: []int64{340}}, Params{})
	mustCreate(t, r, f, "/fill")
	victim := mustCreate(t, r, f, "/victim")
	fill := mustOpen(t, r, f, "/fill")
	hv, _ := f.OpenIno(victim)
	if f.inodeBlockOf(fill.Ino()) != f.inodeBlockOf(victim) {
		t.Fatal("the two files do not share an inode block")
	}
	mustWrite(t, r, hv, 0, 2)
	// Leave 20 blocks: the failing write below takes all of them (its
	// direct blocks, an indirect block, some indirect-mapped blocks)
	// before it finds there is no 21st.
	mustWrite(t, r, fill, 0, f.FreeBlocks()-1-20)
	f.Sync(nil)
	r.Eng.Run()

	free := f.FreeBlocks()
	before := *f.inodes[victim]
	var werr error
	hv.WriteAt(2, 25, func(err error) { werr = err })
	r.Eng.Run()
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("overfull write: %v, want ErrNoSpace", werr)
	}
	checkImages(t, f)
	after := f.inodes[victim]
	if after.size != before.size || after.direct != before.direct || after.indirect != before.indirect || len(after.iblock) != len(before.iblock) {
		t.Errorf("failed write left the inode changed: %+v, was %+v", *after, before)
	}
	if f.FreeBlocks() != free {
		t.Errorf("failed write leaked blocks: %d free, was %d", f.FreeBlocks(), free)
	}

	// Touch the neighbour, flush, and read the image back.
	mustRead(t, r, fill, 0, 1)
	f.Sync(nil)
	r.Eng.Run()
	var f2 *FS
	Mount(r.Eng, r.Driver, 0, Params{}, func(m *FS, err error) {
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f2 = m
	})
	r.Eng.Run()
	got := f2.inodes[victim]
	if got == nil {
		t.Fatal("remounted file system lost the file")
	}
	if got.size != before.size || got.direct != before.direct || got.indirect != before.indirect {
		t.Errorf("on disk after the failed write: size=%d indirect=%d direct=%v, want size=%d indirect=%d direct=%v",
			got.size, got.indirect, got.direct, before.size, before.indirect, before.direct)
	}
	if f2.FreeBlocks() != free {
		t.Errorf("remounted free blocks = %d, want %d", f2.FreeBlocks(), free)
	}
	h2, _ := f2.OpenIno(victim)
	for i, blk := range mustRead(t, r, h2, 0, 2) {
		if !f2.CheckPattern(blk, victim, int64(i)) {
			t.Errorf("remounted block %d corrupt", i)
		}
	}
}
