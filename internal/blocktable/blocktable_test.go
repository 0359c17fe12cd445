package blocktable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestAddLookup(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	got, ok := bt.Lookup(160)
	if !ok || got != 64000 {
		t.Errorf("Lookup = (%d, %v)", got, ok)
	}
	orig, ok := bt.ReverseLookup(64000)
	if !ok || orig != 160 {
		t.Errorf("ReverseLookup = (%d, %v)", orig, ok)
	}
	if _, ok := bt.Lookup(176); ok {
		t.Error("absent block found")
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d", bt.Len())
	}
}

func TestAddRejectsMisaligned(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(7, 64000); err == nil {
		t.Error("misaligned orig accepted")
	}
	if err := bt.Add(160, 64001); err == nil {
		t.Error("misaligned dst accepted")
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	if err := bt.Add(160, 64016); err == nil {
		t.Error("duplicate orig accepted")
	}
	if err := bt.Add(320, 64000); err == nil {
		t.Error("duplicate dst accepted")
	}
}

func TestRemove(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	e, ok := bt.Remove(160)
	if !ok || e.Orig != 160 || e.New != 64000 {
		t.Errorf("Remove = (%+v, %v)", e, ok)
	}
	if _, ok := bt.Lookup(160); ok {
		t.Error("removed block still found")
	}
	if _, ok := bt.ReverseLookup(64000); ok {
		t.Error("removed slot still occupied")
	}
	if _, ok := bt.Remove(160); ok {
		t.Error("double remove succeeded")
	}
}

func TestDirtyBits(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	if bt.IsDirty(160) {
		t.Error("new entry is dirty")
	}
	if !bt.MarkDirty(160) {
		t.Error("MarkDirty of present block returned false")
	}
	if !bt.IsDirty(160) {
		t.Error("dirty bit not set")
	}
	if bt.MarkDirty(999984) {
		t.Error("MarkDirty of absent block returned true")
	}
}

func TestMarkAllDirty(t *testing.T) {
	bt := New(geom.Block8K)
	for i := int64(0); i < 5; i++ {
		if err := bt.Add(i*16, 64000+i*16); err != nil {
			t.Fatal(err)
		}
	}
	bt.MarkAllDirty()
	for _, e := range bt.Entries() {
		if !e.Dirty {
			t.Errorf("entry %d not dirty after MarkAllDirty", e.Orig)
		}
	}
}

func TestEntriesSorted(t *testing.T) {
	bt := New(geom.Block8K)
	for _, orig := range []int64{480, 160, 320} {
		if err := bt.Add(orig, 64000+orig); err != nil {
			t.Fatal(err)
		}
	}
	es := bt.Entries()
	if len(es) != 3 || es[0].Orig != 160 || es[1].Orig != 320 || es[2].Orig != 480 {
		t.Errorf("Entries = %+v", es)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	bt := New(geom.Block8K)
	for i := int64(0); i < 100; i++ {
		if err := bt.Add(i*16*7, 640000+i*16); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			bt.MarkDirty(i * 16 * 7)
		}
	}
	img := bt.Encode()
	if len(img)%geom.SectorSize != 0 {
		t.Errorf("image not sector-aligned: %d bytes", len(img))
	}
	got, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != bt.Len() {
		t.Fatalf("decoded %d entries, want %d", got.Len(), bt.Len())
	}
	for _, e := range bt.Entries() {
		ne, ok := got.Lookup(e.Orig)
		if !ok || ne != e.New {
			t.Errorf("entry %d: got (%d, %v)", e.Orig, ne, ok)
		}
		if got.IsDirty(e.Orig) != e.Dirty {
			t.Errorf("entry %d: dirty bit lost", e.Orig)
		}
	}
}

func TestGenerationRoundTrip(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	bt.Gen = 41
	got, err := Decode(bt.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 41 {
		t.Errorf("Gen = %d, want 41", got.Gen)
	}
	// A torn generation field (fresh header bytes over stale ones) must
	// not decode as valid: the checksum covers the stamp.
	img := bt.Encode()
	img[offHdrGen+7] ^= 0x01
	if _, err := Decode(img); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt generation decoded: %v", err)
	}
}

func TestDecodeEmptyTable(t *testing.T) {
	bt := New(geom.Block8K)
	got, err := Decode(bt.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("decoded empty table has %d entries", got.Len())
	}
	if got.BlockSectors() != 16 {
		t.Errorf("BlockSectors = %d", got.BlockSectors())
	}
}

func TestDecodeWithTrailingPadding(t *testing.T) {
	// The driver reads the whole fixed table allocation; decoding must
	// tolerate trailing padding.
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	img := bt.Encode()
	padded := make([]byte, len(img)+4*geom.SectorSize)
	copy(padded, img)
	got, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("decoded %d entries", got.Len())
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	bt := New(geom.Block8K)
	if err := bt.Add(160, 64000); err != nil {
		t.Fatal(err)
	}
	img := bt.Encode()

	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), img...)
	bad[headerSize] ^= 0x01 // flip an entry byte
	if _, err := Decode(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt entry: %v", err)
	}
	if _, err := Decode(img[:4]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestEncodedSectors(t *testing.T) {
	if got := EncodedSectors(0); got != 1 {
		t.Errorf("EncodedSectors(0) = %d", got)
	}
	// 24 + 27*18 = 510 <= 512; 28 entries need 528 -> 2 sectors.
	if got := EncodedSectors(27); got != 1 {
		t.Errorf("EncodedSectors(27) = %d", got)
	}
	if got := EncodedSectors(28); got != 2 {
		t.Errorf("EncodedSectors(28) = %d", got)
	}
}

func TestMaxEntriesIn(t *testing.T) {
	if got := MaxEntriesIn(1); got != 27 {
		t.Errorf("MaxEntriesIn(1) = %d", got)
	}
	if got := MaxEntriesIn(0); got != 0 {
		t.Errorf("MaxEntriesIn(0) = %d", got)
	}
	// Inverse-ish relation.
	for s := 1; s < 40; s++ {
		n := MaxEntriesIn(s)
		if EncodedSectors(n) > s {
			t.Errorf("EncodedSectors(MaxEntriesIn(%d)=%d) = %d > %d", s, n, EncodedSectors(n), s)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pairs []uint16, dirt []bool) bool {
		bt := New(geom.Block8K)
		for i, p := range pairs {
			orig := int64(p) * 16
			dst := int64(1<<20) + int64(i)*16
			if err := bt.Add(orig, dst); err != nil {
				continue // duplicate orig: fine
			}
			if i < len(dirt) && dirt[i] {
				bt.MarkDirty(orig)
			}
		}
		got, err := Decode(bt.Encode())
		if err != nil {
			return false
		}
		if got.Len() != bt.Len() {
			return false
		}
		for _, e := range bt.Entries() {
			ne, ok := got.Lookup(e.Orig)
			if !ok || ne != e.New || got.IsDirty(e.Orig) != e.Dirty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
