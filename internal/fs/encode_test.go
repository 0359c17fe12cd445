package fs

import (
	"testing"
	"testing/quick"
)

func TestDescriptorRoundTrip(t *testing.T) {
	_, f := newFS(t)
	g := f.groups[3]
	// Perturb the bitmaps.
	g.inodeUsed[5] = true
	g.dataUsed[0] = true
	g.dataUsed[17] = true
	g.freeIno--
	g.freeData -= 2

	buf := f.encodeDescriptor(3)
	// Decode into a sibling FS skeleton.
	r2, f2 := newFS(t)
	_ = r2
	if err := f2.decodeDescriptor(3, buf); err != nil {
		t.Fatal(err)
	}
	g2 := f2.groups[3]
	for i := range g.inodeUsed {
		if g.inodeUsed[i] != g2.inodeUsed[i] {
			t.Fatalf("inode bitmap bit %d lost", i)
		}
	}
	for i := range g.dataUsed {
		if g.dataUsed[i] != g2.dataUsed[i] {
			t.Fatalf("data bitmap bit %d lost", i)
		}
	}
	if g2.freeIno != g.freeIno || g2.freeData != g.freeData {
		t.Errorf("free counts: (%d,%d) vs (%d,%d)", g2.freeIno, g2.freeData, g.freeIno, g.freeData)
	}
}

func TestDescriptorRejectsWrongGroup(t *testing.T) {
	_, f := newFS(t)
	buf := f.encodeDescriptor(3)
	if err := f.decodeDescriptor(4, buf); err == nil {
		t.Error("descriptor accepted for the wrong group")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if err := f.decodeDescriptor(3, bad); err == nil {
		t.Error("corrupt magic accepted")
	}
}

func TestDecodeSuper(t *testing.T) {
	_, f := newFS(t)
	buf := f.encodeDescriptor(0)
	blockBytes, prm, total, err := decodeSuper(buf)
	if err != nil {
		t.Fatal(err)
	}
	if blockBytes != f.blockBytes {
		t.Errorf("blockBytes = %d", blockBytes)
	}
	if prm.CylsPerGroup != f.prm.CylsPerGroup || prm.Stride != f.prm.Stride ||
		prm.InodeBlocksPerGroup != f.prm.InodeBlocksPerGroup {
		t.Errorf("params = %+v", prm)
	}
	if total != f.totalBlocks {
		t.Errorf("totalBlocks = %d, want %d", total, f.totalBlocks)
	}
	if _, _, _, err := decodeSuper(make([]byte, 64)); err == nil {
		t.Error("zero buffer accepted as superblock")
	}
}

func TestInodeSlotRoundTrip(t *testing.T) {
	r, f := newFS(t)
	ino := mustCreate(t, r, f, "/roundtrip")
	h := mustOpen(t, r, f, "/roundtrip")
	mustWrite(t, r, h, 0, NDirect+3)

	nd := f.inodes[ino]
	blk := f.inodeBlockOf(ino)
	buf := f.encodeInodeBlock(blk)
	slot := int(ino) % f.inosPerBlk
	// The slot index within the block depends on the inode's position in
	// its group's table.
	perGroup := len(f.groups[0].inodeUsed)
	idx := int(ino) % perGroup
	slot = idx % f.inosPerBlk

	got, err := decodeInodeSlot(buf, slot, ino)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("used slot decoded as empty")
	}
	if got.dir != nd.dir || got.size != nd.size || got.indirect != nd.indirect {
		t.Errorf("decoded inode = %+v, want %+v", got, nd)
	}
	for i := range nd.direct {
		if got.direct[i] != nd.direct[i] {
			t.Errorf("direct[%d] = %d, want %d", i, got.direct[i], nd.direct[i])
		}
	}
}

func TestInodeSlotEmptyDecodesNil(t *testing.T) {
	_, f := newFS(t)
	buf := make([]byte, f.blockBytes)
	got, err := decodeInodeSlot(buf, 0, 1)
	if err != nil || got != nil {
		t.Errorf("empty slot = (%v, %v)", got, err)
	}
}

func TestIndirectRoundTrip(t *testing.T) {
	_, f := newFS(t)
	ptrs := []int64{100, 200, -1, 400}
	buf := f.encodeIndirect(ptrs)
	got := f.decodeIndirect(buf)
	if len(got) != 4 {
		t.Fatalf("decoded %d pointers, want 4 (trailing -1s trimmed)", len(got))
	}
	for i := range ptrs {
		if got[i] != ptrs[i] {
			t.Errorf("ptr[%d] = %d, want %d", i, got[i], ptrs[i])
		}
	}
}

func TestIndirectRoundTripProperty(t *testing.T) {
	_, f := newFS(t)
	check := func(raw []uint16) bool {
		ptrs := make([]int64, len(raw)%f.ptrsPerBlk)
		for i := range ptrs {
			ptrs[i] = int64(raw[i%len(raw)])
		}
		// Ensure last pointer is not -1 so trimming is exact.
		if len(ptrs) > 0 {
			ptrs[len(ptrs)-1] = 7
		}
		got := f.decodeIndirect(f.encodeIndirect(ptrs))
		if len(got) != len(ptrs) {
			return false
		}
		for i := range ptrs {
			if got[i] != ptrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDirBlockRoundTrip(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/d")
	for _, n := range []string{"alpha", "beta", "gamma"} {
		mustCreate(t, r, f, "/d/"+n)
	}
	dirIno := f.inodes[RootIno].entries["d"]
	nd := f.inodes[dirIno]
	buf := f.encodeDirBlock(nd, 0)

	fresh := &inode{ino: dirIno, dir: true, entries: make(map[string]Ino)}
	f.decodeDirBlock(fresh, 0, buf, int(nd.size))
	if len(fresh.order) != 3 {
		t.Fatalf("decoded %d entries", len(fresh.order))
	}
	for name, ino := range nd.entries {
		if fresh.entries[name] != ino {
			t.Errorf("entry %q = %d, want %d", name, fresh.entries[name], ino)
		}
	}
	for i, name := range nd.order {
		if fresh.order[i] != name {
			t.Errorf("order[%d] = %q, want %q", i, fresh.order[i], name)
		}
	}
}

func TestDataPatternProperties(t *testing.T) {
	r, f := newFS(t)
	a := f.dataPattern(5, 3)
	if !f.CheckPattern(a, 5, 3) {
		t.Error("pattern does not verify against itself")
	}
	if b := f.dataPattern(5, 3); &a[0] != &b[0] || len(b) != f.blockBytes || cap(b) != f.blockBytes {
		t.Errorf("a second window of (5, 3): len %d cap %d, another array %v; want the same window, len = cap = %d",
			len(b), cap(b), &a[0] != &b[0], f.blockBytes)
	}
	if f.CheckPattern(f.dataPattern(5, 4), 5, 3) || f.CheckPattern(f.dataPattern(6, 3), 5, 3) {
		t.Error("pattern collision across (ino, idx)")
	}
	if f.CheckPattern(a[:100], 5, 3) {
		t.Error("short buffer verified")
	}

	// CheckPattern is the reference the windows handed down are checked
	// against, so it must not read the tape: a word changed in the tape
	// must fail it.
	ino := mustCreate(t, r, f, "/p")
	h, _ := f.OpenIno(ino)
	mustWrite(t, r, h, 0, 2)
	w := f.dataPattern(ino, 1)
	old := w[40]
	w[40] ^= 0xff
	if f.CheckPattern(w, ino, 1) {
		t.Error("a changed tape word verified: CheckPattern trusts the tape")
	}
	w[40] = old
	checkTape(t, f)
}

// The two guarantees dataPattern's comment gives: no two blocks of one
// file share a window while idx < tapeSlots, and no two inode numbers
// below tapeSlots at the same idx.
func TestDataWindowsDistinct(t *testing.T) {
	seen := make([]bool, tapeSlots)
	for _, ino := range []Ino{0, 1, 2, 4095, tapeSlots - 1} {
		clear(seen)
		for idx := int64(0); idx < tapeSlots; idx++ {
			s := tapeSlot(ino, idx)
			if seen[s] {
				t.Fatalf("inode %d: block %d shares slot %d with an earlier block", ino, idx, s)
			}
			seen[s] = true
		}
	}
	for _, idx := range []int64{0, 1, 12, 1035, tapeSlots - 1} {
		clear(seen)
		for ino := Ino(0); ino < tapeSlots; ino++ {
			s := tapeSlot(ino, idx)
			if seen[s] {
				t.Fatalf("block %d: inode %d shares slot %d with a lower inode", idx, ino, s)
			}
			seen[s] = true
		}
	}
}

// FuzzDataWindow: every block's window verifies as that block and fails
// as any block at another slot, and is exactly one block long with no
// room to append.
func FuzzDataWindow(f *testing.F) {
	_, fsys := newFS(f)
	f.Add(uint32(5), int64(3), uint32(5), int64(4))
	f.Add(uint32(0), int64(0), uint32(tapeSlots), int64(0))
	f.Add(uint32(1), int64(0), uint32(0), int64(tapeStride))
	f.Fuzz(func(t *testing.T, ia uint32, xa int64, ib uint32, xb int64) {
		a, b := Ino(ia), Ino(ib)
		xa, xb = max(xa, 0), max(xb, 0)
		w := fsys.dataPattern(a, xa)
		if len(w) != fsys.blockBytes || cap(w) != fsys.blockBytes {
			t.Fatalf("window of (%d, %d): len %d cap %d, want both %d", a, xa, len(w), cap(w), fsys.blockBytes)
		}
		if !fsys.CheckPattern(w, a, xa) {
			t.Fatalf("window of (%d, %d) does not verify as itself", a, xa)
		}
		if tapeSlot(a, xa) != tapeSlot(b, xb) && fsys.CheckPattern(w, b, xb) {
			t.Fatalf("window of (%d, %d) verifies as (%d, %d), at another slot", a, xa, b, xb)
		}
	})
}

func TestBitmapHelpers(t *testing.T) {
	bits := make([]bool, 37)
	bits[0], bits[7], bits[8], bits[36] = true, true, true, true
	buf := make([]byte, 64)
	end := putBitmap(buf, 3, bits)
	got := make([]bool, 37)
	end2, err := getBitmap(buf, 3, got)
	if err != nil {
		t.Fatal(err)
	}
	if end != end2 {
		t.Errorf("offsets differ: %d vs %d", end, end2)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Errorf("bit %d lost", i)
		}
	}
	// Wrong-size target rejected.
	if _, err := getBitmap(buf, 3, make([]bool, 12)); err == nil {
		t.Error("bitmap size mismatch accepted")
	}
	// Truncated buffer rejected.
	if _, err := getBitmap(buf[:4], 3, got); err == nil {
		t.Error("truncated bitmap accepted")
	}
}
