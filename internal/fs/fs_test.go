package fs

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/rig"
)

func newFS(t *testing.T) (*rig.Rig, *FS) {
	t.Helper()
	return newFSWith(t, rig.Options{ReservedCyls: 48}, Params{})
}

func newFSWith(t *testing.T, opts rig.Options, prm Params) (*rig.Rig, *FS) {
	t.Helper()
	r, err := rig.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, prm)
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	return r, f
}

// checkImages is the oracle for the inode-block images: every image
// the file system holds must equal a fresh full encode of its block. A
// mutation site that forgot inodeChanged fails here.
func checkImages(t *testing.T, f *FS) {
	t.Helper()
	for gi, g := range f.groups {
		for ib := 0; ib < f.prm.InodeBlocksPerGroup; ib++ {
			blk := g.base + 1 + int64(ib)
			img := f.inoImages[f.imageIndex(blk)]
			if img != nil && !bytes.Equal(img, f.buildInodeBlock(blk)) {
				t.Fatalf("stale image of inode block %d (group %d): an inode changed without inodeChanged", blk, gi)
			}
		}
	}
}

// mustCreate, mustMkdir, mustOpen, mustWrite, mustRead, mustRemove are
// synchronous wrappers that drive the engine to completion and then
// check the inode-block images against the oracle.
func mustCreate(t *testing.T, r *rig.Rig, f *FS, path string) Ino {
	t.Helper()
	var ino Ino
	var cerr error
	f.Create(path, func(i Ino, err error) { ino, cerr = i, err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatalf("create %s: %v", path, cerr)
	}
	checkImages(t, f)
	return ino
}

func mustMkdir(t *testing.T, r *rig.Rig, f *FS, path string) Ino {
	t.Helper()
	var ino Ino
	var cerr error
	f.Mkdir(path, func(i Ino, err error) { ino, cerr = i, err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatalf("mkdir %s: %v", path, cerr)
	}
	checkImages(t, f)
	return ino
}

func mustOpen(t *testing.T, r *rig.Rig, f *FS, path string) *Handle {
	t.Helper()
	var h *Handle
	var oerr error
	f.Open(path, func(hh *Handle, err error) { h, oerr = hh, err })
	r.Eng.Run()
	if oerr != nil {
		t.Fatalf("open %s: %v", path, oerr)
	}
	checkImages(t, f)
	return h
}

func mustWrite(t *testing.T, r *rig.Rig, h *Handle, idx, n int64) {
	t.Helper()
	var werr error
	h.WriteAt(idx, n, func(err error) { werr = err })
	r.Eng.Run()
	if werr != nil {
		t.Fatalf("write: %v", werr)
	}
	checkImages(t, h.f)
}

// mustRead returns copies: what ReadAt hands its callback is borrowed
// until the callback returns.
func mustRead(t *testing.T, r *rig.Rig, h *Handle, idx, n int64) [][]byte {
	t.Helper()
	var data [][]byte
	var rerr error
	h.ReadAt(idx, n, func(d [][]byte, err error) {
		rerr = err
		for _, blk := range d {
			data = append(data, bytes.Clone(blk))
		}
	})
	r.Eng.Run()
	if rerr != nil {
		t.Fatalf("read: %v", rerr)
	}
	checkImages(t, h.f)
	return data
}

func mustRemove(t *testing.T, r *rig.Rig, f *FS, path string) {
	t.Helper()
	var rerr error
	f.Remove(path, func(err error) { rerr = err })
	r.Eng.Run()
	if rerr != nil {
		t.Fatalf("remove %s: %v", path, rerr)
	}
	checkImages(t, f)
}

func TestNewfsLayout(t *testing.T) {
	_, f := newFS(t)
	if f.Groups() < 10 {
		t.Errorf("only %d cylinder groups", f.Groups())
	}
	if f.FreeBlocks() <= 0 {
		t.Error("no free blocks after format")
	}
	if f.TotalBlocks() <= f.FreeBlocks() {
		t.Error("metadata occupies no space")
	}
}

func TestCreateAndLookup(t *testing.T) {
	r, f := newFS(t)
	ino := mustCreate(t, r, f, "/hello")
	var got Ino
	var lerr error
	f.Lookup("/hello", func(i Ino, err error) { got, lerr = i, err })
	r.Eng.Run()
	if lerr != nil || got != ino {
		t.Fatalf("lookup = (%d, %v), want %d", got, lerr, ino)
	}
	f.Lookup("/missing", func(_ Ino, err error) { lerr = err })
	r.Eng.Run()
	if !errors.Is(lerr, ErrNotFound) {
		t.Errorf("missing file: %v", lerr)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/a")
	var cerr error
	f.Create("/a", func(_ Ino, err error) { cerr = err })
	r.Eng.Run()
	if !errors.Is(cerr, ErrExists) {
		t.Errorf("duplicate create: %v", cerr)
	}
}

func TestCreateBadNames(t *testing.T) {
	r, f := newFS(t)
	var cerr error
	f.Create("/"+string(make([]byte, 100)), func(_ Ino, err error) { cerr = err })
	r.Eng.Run()
	if cerr == nil {
		t.Error("oversized name accepted")
	}
}

func TestMkdirAndNesting(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/usr")
	mustMkdir(t, r, f, "/usr/bin")
	ino := mustCreate(t, r, f, "/usr/bin/ls")
	var got Ino
	f.Lookup("/usr/bin/ls", func(i Ino, err error) { got = i })
	r.Eng.Run()
	if got != ino {
		t.Errorf("nested lookup = %d, want %d", got, ino)
	}
	// Files cannot be used as directories.
	var cerr error
	f.Create("/usr/bin/ls/sub", func(_ Ino, err error) { cerr = err })
	r.Eng.Run()
	if !errors.Is(cerr, ErrNotDir) {
		t.Errorf("create under file: %v", cerr)
	}
}

func TestReadDir(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/d")
	for _, n := range []string{"x", "y", "z"} {
		mustCreate(t, r, f, "/d/"+n)
	}
	var names []string
	f.ReadDir("/d", func(ns []string, err error) {
		if err != nil {
			t.Errorf("readdir: %v", err)
		}
		names = ns
	})
	r.Eng.Run()
	if len(names) != 3 || names[0] != "x" || names[1] != "y" || names[2] != "z" {
		t.Errorf("names = %v", names)
	}
	var derr error
	f.ReadDir("/d/x", func(_ []string, err error) { derr = err })
	r.Eng.Run()
	if !errors.Is(derr, ErrNotDir) {
		t.Errorf("readdir of file: %v", derr)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/data")
	h := mustOpen(t, r, f, "/data")
	mustWrite(t, r, h, 0, 5)
	if h.SizeBlocks() != 5 {
		t.Fatalf("size = %d", h.SizeBlocks())
	}
	data := mustRead(t, r, h, 0, 5)
	if len(data) != 5 {
		t.Fatalf("read %d blocks", len(data))
	}
	for i, blk := range data {
		if !f.CheckPattern(blk, h.Ino(), int64(i)) {
			t.Errorf("block %d content wrong", i)
		}
	}
}

func TestWriteExtendsButNoHoles(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/a")
	h := mustOpen(t, r, f, "/a")
	mustWrite(t, r, h, 0, 2)
	mustWrite(t, r, h, 2, 3) // extend at exactly size
	mustWrite(t, r, h, 1, 1) // overwrite
	var werr error
	h.WriteAt(10, 1, func(err error) { werr = err }) // hole
	r.Eng.Run()
	if !errors.Is(werr, ErrBadRange) {
		t.Errorf("hole write: %v", werr)
	}
	if h.SizeBlocks() != 5 {
		t.Errorf("size = %d", h.SizeBlocks())
	}
}

func TestReadValidation(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/a")
	h := mustOpen(t, r, f, "/a")
	mustWrite(t, r, h, 0, 2)
	var rerr error
	h.ReadAt(0, 3, func(_ [][]byte, err error) { rerr = err })
	r.Eng.Run()
	if !errors.Is(rerr, ErrBadRange) {
		t.Errorf("read past EOF: %v", rerr)
	}
	h.ReadAt(-1, 1, func(_ [][]byte, err error) { rerr = err })
	r.Eng.Run()
	if !errors.Is(rerr, ErrBadRange) {
		t.Errorf("negative read: %v", rerr)
	}
}

func TestLargeFileUsesIndirect(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/big")
	h := mustOpen(t, r, f, "/big")
	mustWrite(t, r, h, 0, NDirect+20)
	data := mustRead(t, r, h, 0, NDirect+20)
	for i, blk := range data {
		if !f.CheckPattern(blk, h.Ino(), int64(i)) {
			t.Fatalf("block %d content wrong", i)
		}
	}
	nd := f.inodes[h.Ino()]
	if nd.indirect < 0 {
		t.Error("no indirect block allocated")
	}
	if len(nd.iblock) != 20 {
		t.Errorf("indirect holds %d pointers", len(nd.iblock))
	}
}

func TestFileTooBig(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/huge")
	h := mustOpen(t, r, f, "/huge")
	var werr error
	h.WriteAt(0, f.MaxFileBlocks()+1, func(err error) { werr = err })
	r.Eng.Run()
	if !errors.Is(werr, ErrFileTooBig) {
		t.Errorf("oversized write: %v", werr)
	}
}

func TestInterleavedAllocation(t *testing.T) {
	// Successive blocks of a freshly-written file should sit the
	// rotational stride apart (2 blocks by default).
	r, f := newFS(t)
	mustCreate(t, r, f, "/seq")
	h := mustOpen(t, r, f, "/seq")
	mustWrite(t, r, h, 0, 8)
	nd := f.inodes[h.Ino()]
	strided := 0
	for i := 1; i < 8; i++ {
		if nd.direct[i]-nd.direct[i-1] == int64(f.prm.Stride) {
			strided++
		}
	}
	if strided < 6 {
		t.Errorf("only %d of 7 gaps use the interleave stride", strided)
	}
}

func TestFileAllocatedNearDirectory(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/home")
	ino := mustCreate(t, r, f, "/home/file")
	perGroup := len(f.groups[0].inodeUsed)
	dirIno := f.inodes[RootIno].entries["home"]
	if int(ino)/perGroup != int(dirIno)/perGroup {
		t.Errorf("file in group %d, directory in group %d",
			int(ino)/perGroup, int(dirIno)/perGroup)
	}
	// The file's data lands in the same group too.
	h := mustOpen(t, r, f, "/home/file")
	mustWrite(t, r, h, 0, 3)
	nd := f.inodes[h.Ino()]
	for i := 0; i < 3; i++ {
		if f.groupOf(nd.direct[i]) != int(ino)/perGroup {
			t.Errorf("block %d in group %d, inode in group %d",
				i, f.groupOf(nd.direct[i]), int(ino)/perGroup)
		}
	}
}

func TestDirectoriesSpread(t *testing.T) {
	r, f := newFS(t)
	groups := map[int]bool{}
	perGroup := len(f.groups[0].inodeUsed)
	for _, n := range []string{"/a", "/b", "/c", "/d"} {
		ino := mustMkdir(t, r, f, n)
		groups[int(ino)/perGroup] = true
	}
	if len(groups) < 3 {
		t.Errorf("4 directories landed in only %d groups", len(groups))
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	r, f := newFS(t)
	// Anchor entry so the root directory's data block (which, like FFS,
	// is never shrunk away) is already allocated in the baseline.
	mustCreate(t, r, f, "/anchor")
	free0 := f.FreeBlocks()
	mustCreate(t, r, f, "/tmp")
	h := mustOpen(t, r, f, "/tmp")
	mustWrite(t, r, h, 0, 20) // uses indirect too
	if f.FreeBlocks() >= free0 {
		t.Fatal("write consumed no space")
	}
	mustRemove(t, r, f, "/tmp")
	if f.FreeBlocks() != free0 {
		t.Errorf("free = %d after remove, want %d", f.FreeBlocks(), free0)
	}
	var lerr error
	f.Lookup("/tmp", func(_ Ino, err error) { lerr = err })
	r.Eng.Run()
	if !errors.Is(lerr, ErrNotFound) {
		t.Errorf("removed file still found: %v", lerr)
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/d")
	mustCreate(t, r, f, "/d/x")
	var rerr error
	f.Remove("/d", func(err error) { rerr = err })
	r.Eng.Run()
	if !errors.Is(rerr, ErrNotEmpty) {
		t.Errorf("remove non-empty dir: %v", rerr)
	}
	// Empty it, then it works.
	mustRemove(t, r, f, "/d/x")
	mustRemove(t, r, f, "/d")
}

func TestRemoveMiddleEntryKeepsOthers(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/d")
	for _, n := range []string{"a", "b", "c"} {
		mustCreate(t, r, f, "/d/"+n)
	}
	mustRemove(t, r, f, "/d/b")
	for _, n := range []string{"a", "c"} {
		var lerr error
		f.Lookup("/d/"+n, func(_ Ino, err error) { lerr = err })
		r.Eng.Run()
		if lerr != nil {
			t.Errorf("lookup %s after sibling removal: %v", n, lerr)
		}
	}
}

func TestReadOnlyMount(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/x")
	h := mustOpen(t, r, f, "/x")
	mustWrite(t, r, h, 0, 1)
	f.SetReadOnly(true)
	var errs []error
	f.Create("/y", func(_ Ino, err error) { errs = append(errs, err) })
	f.Remove("/x", func(err error) { errs = append(errs, err) })
	h.WriteAt(0, 1, func(err error) { errs = append(errs, err) })
	r.Eng.Run()
	for i, err := range errs {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("op %d on read-only fs: %v", i, err)
		}
	}
	// Reads still work.
	if got := mustRead(t, r, h, 0, 1); len(got) != 1 {
		t.Error("read failed on read-only fs")
	}
}

func TestAtimeGeneratesWritesOnReadOnlyFS(t *testing.T) {
	// Section 3.1: even a read-only mount produces write requests —
	// inode bookkeeping flushed by the update policy.
	r, f := newFS(t)
	mustCreate(t, r, f, "/lib")
	h := mustOpen(t, r, f, "/lib")
	mustWrite(t, r, h, 0, 4)
	f.Sync(nil)
	r.Eng.Run()
	f.SetReadOnly(true)
	r.Driver.ReadStats() // clear

	mustRead(t, r, h, 0, 4)
	f.Sync(nil)
	r.Eng.Run()
	st := r.Driver.ReadStats()
	if st.WriteSide.Count() == 0 {
		t.Error("read-only workload produced no bookkeeping writes")
	}
}

func TestNoAtimeSuppressesBookkeeping(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{NoAtime: true})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	mustCreate(t, r, f, "/a")
	h := mustOpen(t, r, f, "/a")
	mustWrite(t, r, h, 0, 2)
	f.Sync(nil)
	r.Eng.Run()
	r.Driver.ReadStats()
	mustRead(t, r, h, 0, 2)
	f.Sync(nil)
	r.Eng.Run()
	if n := r.Driver.ReadStats().WriteSide.Count(); n != 0 {
		t.Errorf("noatime read produced %d writes", n)
	}
}

func TestOutOfSpace(t *testing.T) {
	// A one-group partition fills up quickly.
	r, err := rig.New(rig.Options{ReservedCyls: 48, PartitionBlocks: []int64{340}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	mustCreate(t, r, f, "/fill")
	h := mustOpen(t, r, f, "/fill")
	var werr error
	// Leave one block for the file's own indirect block.
	h.WriteAt(0, f.FreeBlocks()-1, func(err error) { werr = err })
	r.Eng.Run()
	if werr != nil && !errors.Is(werr, ErrFileTooBig) {
		t.Fatalf("filling write failed: %v", werr)
	}
	// Now allocate one more block somewhere.
	mustCreate(t, r, f, "/more")
	h2 := mustOpen(t, r, f, "/more")
	remaining := f.FreeBlocks()
	h2.WriteAt(0, remaining+1, func(err error) { werr = err })
	r.Eng.Run()
	if !errors.Is(werr, ErrNoSpace) && !errors.Is(werr, ErrFileTooBig) {
		t.Errorf("overfull write: %v", werr)
	}
	checkImages(t, f)
}

func TestManyFilesDirectoryGrowth(t *testing.T) {
	// More entries than fit in one directory block (256 per 8K block).
	r, f := newFS(t)
	mustMkdir(t, r, f, "/big")
	for i := 0; i < 300; i++ {
		mustCreate(t, r, f, "/big/"+name3(i))
	}
	var names []string
	f.ReadDir("/big", func(ns []string, err error) { names = ns })
	r.Eng.Run()
	if len(names) != 300 {
		t.Fatalf("%d entries", len(names))
	}
	// Lookups of entries in the second block still work.
	var lerr error
	f.Lookup("/big/"+name3(299), func(_ Ino, err error) { lerr = err })
	r.Eng.Run()
	if lerr != nil {
		t.Errorf("lookup in grown directory: %v", lerr)
	}
}

func name3(i int) string {
	return string([]byte{'f', byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

func TestSyncMountRoundTrip(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/home")
	mustMkdir(t, r, f, "/home/amy")
	ino := mustCreate(t, r, f, "/home/amy/notes")
	h := mustOpen(t, r, f, "/home/amy/notes")
	mustWrite(t, r, h, 0, NDirect+5) // exercise the indirect block
	f.Sync(nil)
	r.Eng.Run()

	var f2 *FS
	var merr error
	Mount(r.Eng, r.Driver, 0, Params{}, func(m *FS, err error) { f2, merr = m, err })
	r.Eng.Run()
	if merr != nil {
		t.Fatal(merr)
	}
	var got Ino
	f2.Lookup("/home/amy/notes", func(i Ino, err error) {
		if err != nil {
			t.Errorf("lookup after mount: %v", err)
		}
		got = i
	})
	r.Eng.Run()
	if got != ino {
		t.Fatalf("remounted inode = %d, want %d", got, ino)
	}
	h2, err := f2.OpenIno(got)
	if err != nil {
		t.Fatal(err)
	}
	if h2.SizeBlocks() != NDirect+5 {
		t.Fatalf("remounted size = %d", h2.SizeBlocks())
	}
	for i, blk := range mustRead(t, r, h2, 0, NDirect+5) {
		if !f2.CheckPattern(blk, got, int64(i)) {
			t.Fatalf("remounted block %d corrupt", i)
		}
	}
	if f2.FreeBlocks() != f.FreeBlocks() {
		t.Errorf("free blocks: remounted %d, original %d", f2.FreeBlocks(), f.FreeBlocks())
	}
}

func TestMountRequiresValidImage(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	var merr error
	Mount(r.Eng, r.Driver, 0, Params{}, func(_ *FS, err error) { merr = err })
	r.Eng.Run()
	if merr == nil {
		t.Fatal("mount of unformatted partition succeeded")
	}
}

func TestRearrangementPreservesFileContents(t *testing.T) {
	// The end-to-end integrity property: copy a file's hot blocks into
	// the reserved region via the driver, overwrite some through the fs,
	// clean, remount — contents must survive every step.
	r, f := newFS(t)
	mustCreate(t, r, f, "/hot")
	h := mustOpen(t, r, f, "/hot")
	mustWrite(t, r, h, 0, 8)
	f.Sync(nil)
	r.Eng.Run()

	// Rearrange the file's first four blocks (original physical addrs).
	p, _ := r.Label.Partition(0)
	nd := f.inodes[h.Ino()]
	slots := r.Driver.ReservedSlots()
	for i := 0; i < 4; i++ {
		orig := r.Label.MapVirtual(p.Start + nd.direct[i]*16)
		var cerr error
		r.Driver.BCopy(orig, slots[0][i], func(err error) { cerr = err })
		r.Eng.Run()
		if cerr != nil {
			t.Fatal(cerr)
		}
	}
	// Reads go through the redirect and verify.
	for i, blk := range mustRead(t, r, h, 0, 8) {
		if !f.CheckPattern(blk, h.Ino(), int64(i)) {
			t.Fatalf("block %d corrupt after rearrangement", i)
		}
	}
	// Overwrite block 1 (dirty in reserved region), then clean.
	mustWrite(t, r, h, 1, 1)
	f.Sync(nil)
	r.Eng.Run()
	var clerr error
	r.Driver.Clean(func(err error) { clerr = err })
	r.Eng.Run()
	if clerr != nil {
		t.Fatal(clerr)
	}
	// Remount from disk and verify everything.
	var f2 *FS
	Mount(r.Eng, r.Driver, 0, Params{}, func(m *FS, err error) {
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f2 = m
	})
	r.Eng.Run()
	h2, err := f2.OpenIno(h.Ino())
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range mustRead(t, r, h2, 0, 8) {
		if !f2.CheckPattern(blk, h.Ino(), int64(i)) {
			t.Fatalf("block %d corrupt after clean+remount", i)
		}
	}
}

func TestCacheAbsorbsRepeatedReads(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/popular")
	h := mustOpen(t, r, f, "/popular")
	mustWrite(t, r, h, 0, 2)
	mustRead(t, r, h, 0, 2)
	hits0, misses0, _ := f.Cache().Stats()
	mustRead(t, r, h, 0, 2)
	hits1, misses1, _ := f.Cache().Stats()
	if misses1 != misses0 {
		t.Errorf("second read missed (%d -> %d)", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Error("second read did not hit the cache")
	}
}

func TestStrideOneAllocatesContiguously(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	mustCreate(t, r, f, "/seq")
	h := mustOpen(t, r, f, "/seq")
	mustWrite(t, r, h, 0, 6)
	nd := f.inodes[h.Ino()]
	for i := 1; i < 6; i++ {
		if nd.direct[i] != nd.direct[i-1]+1 {
			t.Errorf("stride 1: blocks %d and %d not contiguous (%d, %d)",
				i-1, i, nd.direct[i-1], nd.direct[i])
		}
	}
}

func TestSyncDataWritesThrough(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{SyncData: true})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	mustCreate(t, r, f, "/nfs")
	h := mustOpen(t, r, f, "/nfs")
	r.Driver.ReadStats()
	mustWrite(t, r, h, 0, 3)
	// The three data blocks hit the disk synchronously (metadata stays
	// delayed).
	if n := r.Driver.ReadStats().WriteSide.Count(); n != 3 {
		t.Errorf("%d synchronous writes, want 3 data blocks", n)
	}
	// Contents verify.
	for i, blk := range mustRead(t, r, h, 0, 3) {
		if !f.CheckPattern(blk, h.Ino(), int64(i)) {
			t.Errorf("block %d corrupt", i)
		}
	}
}

func TestTouchWalkDirtiesDirectoryInodes(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/deep")
	mustMkdir(t, r, f, "/deep/er")
	mustCreate(t, r, f, "/deep/er/file")
	f.Sync(nil)
	r.Eng.Run()
	if n := f.MetaCache().DirtyLen(); n != 0 {
		t.Fatalf("%d dirty before lookup", n)
	}
	var lerr error
	f.Lookup("/deep/er/file", func(_ Ino, err error) { lerr = err })
	r.Eng.Run()
	if lerr != nil {
		t.Fatal(lerr)
	}
	// Root, /deep and /deep/er inode blocks dirtied (some may share an
	// inode block; at least one distinct block must be dirty).
	if n := f.MetaCache().DirtyLen(); n == 0 {
		t.Error("path walk dirtied no directory access times")
	}
}

func TestFreeBlocksNeverNegative(t *testing.T) {
	r, f := newFS(t)
	for i := 0; i < 30; i++ {
		path := "/churn" + name3(i)
		mustCreate(t, r, f, path)
		h := mustOpen(t, r, f, path)
		mustWrite(t, r, h, 0, 5)
		if i%2 == 0 {
			mustRemove(t, r, f, path)
		}
		if f.FreeBlocks() < 0 || f.FreeBlocks() > f.TotalBlocks() {
			t.Fatalf("free blocks = %d of %d", f.FreeBlocks(), f.TotalBlocks())
		}
	}
}

// OpenIno checks the number it is given: the inode table is a slice, and
// a number outside it is a missing file, not a panic.
func TestOpenInoOutsideTable(t *testing.T) {
	r, f := newFS(t)
	ino := mustCreate(t, r, f, "/here")
	if _, err := f.OpenIno(ino); err != nil {
		t.Fatalf("OpenIno(%d): %v", ino, err)
	}
	for _, bad := range []Ino{-1, math.MinInt32, ino + 1, Ino(len(f.inodes)), math.MaxInt32} {
		h, err := f.OpenIno(bad)
		if !errors.Is(err, ErrNotFound) || h != nil {
			t.Errorf("OpenIno(%d) = %v, %v; want ErrNotFound", bad, h, err)
		}
	}
	// A handle that outlives its file, or never had one, answers the same.
	stale := &Handle{f: f, ino: math.MaxInt32}
	if stale.IsDir() || stale.SizeBlocks() != 0 {
		t.Error("a handle on an inode number outside the table claims a file")
	}
	var rerr error
	stale.ReadAt(0, 1, func(_ [][]byte, err error) { rerr = err })
	r.Eng.Run()
	if !errors.Is(rerr, ErrNotFound) {
		t.Errorf("ReadAt through it: %v, want ErrNotFound", rerr)
	}
}

// What ReadAt hands done is on loan from the data cache until done
// returns (see readReq.finish). Here the cache holds four blocks and the
// walks are eight long and overlap, so every walk has its earlier blocks
// evicted — by itself and by the others — long before it finishes; had
// the cache recycled them then, or the walk released them before calling
// done, done would find 0xDB or another block's data where the file's
// should be.
func TestReadAtBlocksValidUntilDoneReturns(t *testing.T) {
	r, f := newFSWith(t, rig.Options{ReservedCyls: 48},
		Params{NoAtime: true, Cache: cache.Config{CapacityBlocks: 4}})
	var hs []*Handle
	for _, name := range []string{"/a", "/b", "/c"} {
		mustCreate(t, r, f, name)
		h := mustOpen(t, r, f, name)
		mustWrite(t, r, h, 0, 8)
		hs = append(hs, h)
	}
	f.Sync(nil)
	r.Eng.Run()
	walks := 0
	for round := 0; round < 3; round++ {
		for i, h := range hs {
			from := int64((i + round) % 3)
			h.ReadAt(from, 8-from, func(out [][]byte, err error) {
				if err != nil || int64(len(out)) != 8-from {
					t.Fatalf("read [%d,8) of %d: %d blocks, err %v", from, h.Ino(), len(out), err)
				}
				for k, blk := range out {
					if !f.CheckPattern(blk, h.Ino(), from+int64(k)) {
						t.Errorf("read [%d,8) of inode %d: block %d is not the file's inside done", from, h.Ino(), from+int64(k))
					}
				}
				walks++
			})
		}
		r.Eng.Run()
	}
	if walks != 9 {
		t.Fatalf("%d of 9 walks completed", walks)
	}
	// And "until done returns" means to the end of done: removing the
	// file invalidates its cached blocks on the spot, with done still
	// looking at them.
	h := hs[0]
	h.ReadAt(5, 3, func(out [][]byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f.Remove("/a", nil)
		for k, blk := range out {
			if !f.CheckPattern(blk, h.Ino(), 5+int64(k)) {
				t.Errorf("block %d changed under done when the file was removed", 5+k)
			}
		}
		walks++
	})
	r.Eng.Run()
	if walks != 10 {
		t.Fatal("the last walk did not complete")
	}
	if _, misses, _ := f.Cache().Stats(); misses < 9*5 {
		t.Fatalf("only %d data-cache misses: the walks were meant to evict each other's blocks", misses)
	}
}

// A fully cached single-block read allocates nothing: the walk record,
// its callbacks and the result slice handed to done are pooled (see
// readReq), and the cache's hit delivery is pooled one layer down — this
// is the floor that keeps read-heavy simulated workloads out of the
// garbage collector. It holds with access times on as well: the touch
// hands the cache the inode block's held image, so it neither allocates
// nor encodes a block. (The test keeps the name it had when the result
// slice was the one allocation left; the floor is zero.)
func TestReadAtWarmOneAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		prm  Params
	}{
		{"noatime", Params{NoAtime: true}},
		{"atime", Params{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, f := newFSWith(t, rig.Options{ReservedCyls: 48}, tc.prm)
			mustCreate(t, r, f, "/warm")
			h := mustOpen(t, r, f, "/warm")
			mustWrite(t, r, h, 0, 1)
			done := func(out [][]byte, err error) {
				if err != nil || len(out) != 1 {
					t.Fatal("bad read completion")
				}
			}
			op := func() {
				h.ReadAt(0, 1, done)
				r.Eng.Run()
			}
			for i := 0; i < 16; i++ {
				op()
			}
			if n := testing.AllocsPerRun(200, op); n != 0 {
				t.Errorf("warm ReadAt round trip: %v allocs, want 0", n)
			}
		})
	}
}
