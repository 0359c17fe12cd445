package driver

import (
	"testing"

	"repro/internal/blocktable"
	"repro/internal/geom"
)

// tableImage builds the driver's on-disk table allocation from two slot
// images: each is copied into its slot, cut or zero-filled to the slot's
// size, as a torn or short write leaves it.
func tableImage(a, b []byte) []byte {
	ss := slotSectors(geom.Block8K) * geom.SectorSize
	img := make([]byte, tableSectors(geom.Block8K)*geom.SectorSize)
	copy(img[:ss], a)
	copy(img[ss:2*ss], b)
	return img
}

// encodeTable encodes a table of n entries at generation gen, the first
// dirty.
func encodeTable(tb testing.TB, bs geom.BlockSize, n int, gen uint64) []byte {
	tb.Helper()
	t := blocktable.New(bs)
	for i := int64(0); i < int64(n); i++ {
		if err := t.Add(i*160, 640000+i*16); err != nil {
			tb.Fatal(err)
		}
	}
	if n > 0 {
		t.MarkDirty(0)
	}
	t.Gen = gen
	return t.Encode()
}

// FuzzDecodeTableImage drives the recovery decode Attach runs after an
// unclean shutdown, decodeTableImage(img, true), on a two-slot image
// built from the fuzz bytes. It must never panic, every entry of the
// table it recovers must be dirty, and the table must be the newer of
// the slots that decode on their own.
func FuzzDecodeTableImage(f *testing.F) {
	empty := encodeTable(f, geom.Block8K, 0, 1)
	small := encodeTable(f, geom.Block8K, 5, 3)
	newer := encodeTable(f, geom.Block8K, 7, 4)
	big := encodeTable(f, geom.Block4K, 100, 2)
	flip := func(img []byte, off int) []byte {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x80
		return bad
	}
	for _, seed := range [][2][]byte{
		{empty, nil},
		{small, nil},
		{nil, small},
		{small, newer},
		{newer, small},
		{big, small},
		{small, small},
		// Torn writes: truncated inside the header, at its end and
		// mid-entry, the other slot intact or empty.
		{small[:4], newer},
		{newer[:23], small},
		{small, newer[:24]},
		{small, newer[:len(newer)-1]},
		// Bit flips in every header field and in an entry.
		{flip(newer, 0), small},
		{flip(newer, 4), small},
		{flip(newer, 6), small},
		{flip(newer, 12), small},
		{small, flip(newer, 27)},
		// A hostile entry count and nothing else valid.
		{flip(flip(small, 8), 9), nil},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		img := tableImage(a, b)
		tbl, err := decodeTableImage(img, true)
		ss := slotSectors(geom.Block8K) * geom.SectorSize
		slotA, errA := blocktable.Decode(img[:ss])
		slotB, errB := blocktable.Decode(img[ss : 2*ss])
		if err != nil {
			if errA == nil || errB == nil {
				t.Fatalf("recovery failed (%v) with a valid slot", err)
			}
			return
		}
		want := slotA
		if errA != nil || (errB == nil && slotB.Gen > slotA.Gen) {
			want = slotB
		}
		if tbl.Gen != want.Gen || tbl.Len() != want.Len() {
			t.Fatalf("recovered generation %d with %d entries; the newer valid slot holds generation %d with %d",
				tbl.Gen, tbl.Len(), want.Gen, want.Len())
		}
		for _, e := range tbl.Entries() {
			if !e.Dirty {
				t.Fatalf("entry %d not dirty after recovery", e.Orig)
			}
		}
	})
}
