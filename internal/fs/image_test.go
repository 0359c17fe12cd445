package fs

import (
	"bytes"
	"errors"
	"runtime"
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

// A data block's page is built by the first write of that file block and
// handed down by every overwrite: the cache, and once flushed the disk,
// hold the very array the first write built. The pages leave with the
// inode — a file created on a reused inode number, and a file system
// mounted afresh, build their own — and a write that runs out of space
// keeps none past the old size.
func TestOverwriteHandsSamePage(t *testing.T) {
	// One cylinder group, so the out-of-space write at the end is near.
	r, f := newFSWith(t, rig.Options{ReservedCyls: 48, PartitionBlocks: []int64{340}}, Params{})
	const n = NDirect + 2 // through the indirect block
	// cached returns the data cache's copy of file block b.
	cached := func(f *FS, ino Ino, b int64) []byte {
		t.Helper()
		var got []byte
		f.Cache().Read(f.blockOf(f.inodes[ino], b), func(data []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = data
		})
		r.Eng.Run()
		return got
	}
	verify := func(f *FS, ino Ino, when string) {
		t.Helper()
		h, _ := f.OpenIno(ino)
		for b, blk := range mustRead(t, r, h, 0, h.SizeBlocks()) {
			if !f.CheckPattern(blk, ino, int64(b)) {
				t.Fatalf("%s: block %d corrupt", when, b)
			}
		}
	}

	ino := mustCreate(t, r, f, "/a")
	h, _ := f.OpenIno(ino)
	mustWrite(t, r, h, 0, n)
	first := make([][]byte, n) // held: no later page can take their address
	for b := range first {
		first[b] = cached(f, ino, int64(b))
	}
	mustWrite(t, r, h, 0, n)
	mustWrite(t, r, h, 1, 1)
	for b := range first {
		if got := cached(f, ino, int64(b)); &got[0] != &first[b][0] {
			t.Errorf("overwrite of block %d handed down another page than the first write built", b)
		}
	}
	f.Sync(nil)
	r.Eng.Run()
	blk := f.blockOf(f.inodes[ino], 1)
	r.Driver.ReadBlock(0, blk, func(data []byte, err error) {
		if err != nil || &data[0] != &first[1][0] {
			t.Errorf("the disk does not hold the page the write built (err=%v)", err)
		}
	})
	r.Eng.Run()

	// The inode number is reused; its pages are not.
	mustRemove(t, r, f, "/a")
	if again := mustCreate(t, r, f, "/b"); again != ino {
		t.Fatalf("the new file got inode %d, want the freed %d", again, ino)
	}
	mustWrite(t, r, h, 0, n)
	for b := range first {
		if got := cached(f, ino, int64(b)); &got[0] == &first[b][0] {
			t.Errorf("a file on a reused inode number was handed the removed file's page for block %d", b)
		}
	}
	verify(f, ino, "re-created")

	// A mounted file system starts with no pages and builds its own.
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
	before := cached(f, ino, 0)
	h2, _ := f2.OpenIno(ino)
	mustWrite(t, r, h2, 0, 1)
	if got := cached(f2, ino, 0); &got[0] == &before[0] {
		t.Error("the mounted file system's first write handed down the old instance's page")
	}
	verify(f2, ino, "remounted")

	// Out of space part way: no page is kept past the old size.
	fill := mustCreate(t, r, f2, "/fill")
	hf, _ := f2.OpenIno(fill)
	mustWrite(t, r, hf, 0, f2.FreeBlocks()-1-20)
	var werr error
	h2.WriteAt(n-1, 25, func(err error) { werr = err })
	r.Eng.Run()
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("overfull write: %v, want ErrNoSpace", werr)
	}
	checkImages(t, f2)
	if nd := f2.inodes[ino]; len(nd.pages) != n {
		t.Errorf("after the failed write the inode keeps %d page slots for a %d-block file", len(nd.pages), n)
	}
	verify(f2, ino, "after the failed write")
}

// An overwrite builds nothing: it hands down the page the first write
// built, so overwriting a written block allocates less than one block's
// bytes per call — what is left is the write's steps and completions —
// while the first write of a block still builds its page.
func TestOverwriteAllocatesNoPage(t *testing.T) {
	r, f := newFS(t)
	ino := mustCreate(t, r, f, "/w")
	h, _ := f.OpenIno(ino)
	mustWrite(t, r, h, 0, 1)
	overwrite := func() {
		h.WriteAt(0, 1, nil)
		r.Eng.Run()
	}
	for i := 0; i < 16; i++ {
		overwrite()
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		overwrite()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= uint64(f.blockBytes) {
		t.Errorf("an overwrite allocates %d bytes, want less than one %d-byte block", per, f.blockBytes)
	}
	mustWrite(t, r, h, 1, 1)
	if p := f.inodes[ino].pages; len(p) != 2 || p[1] == nil {
		t.Fatalf("the first write of block 1 kept no page (%d slots)", len(p))
	}
}
