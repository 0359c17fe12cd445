package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/seek"
)

func TestModelsMatchTable1(t *testing.T) {
	tosh := Toshiba()
	if tosh.Geom.Cylinders != 815 || tosh.Geom.TracksPerCyl != 10 ||
		tosh.Geom.SectorsPerTrack != 34 || tosh.Geom.RPM != 3600 {
		t.Errorf("Toshiba geometry = %+v", tosh.Geom)
	}
	if tosh.TrackBufferKB != 0 {
		t.Error("Toshiba should have no track buffer")
	}
	fuji := Fujitsu()
	if fuji.Geom.Cylinders != 1658 || fuji.Geom.TracksPerCyl != 15 ||
		fuji.Geom.SectorsPerTrack != 85 || fuji.Geom.RPM != 3600 {
		t.Errorf("Fujitsu geometry = %+v", fuji.Geom)
	}
	if fuji.TrackBufferKB != 256 {
		t.Errorf("Fujitsu track buffer = %d KB, want 256", fuji.TrackBufferKB)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Model{Name: "bad"}); err == nil {
		t.Error("model without geometry accepted")
	}
	m := Toshiba()
	m.Seek = nil
	if _, err := New(m); err == nil {
		t.Error("model without seek curve accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := MustNew(Toshiba())
	data := make([]byte, 16*geom.SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := d.Write(0, 1000, 16, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(100, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read data differs from written data")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	d := MustNew(Toshiba())
	got, _, err := d.Read(0, 5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector returned non-zero data")
		}
	}
}

func TestPartialOverwrite(t *testing.T) {
	d := MustNew(Toshiba())
	a := bytes.Repeat([]byte{0xAA}, 4*geom.SectorSize)
	b := bytes.Repeat([]byte{0xBB}, 2*geom.SectorSize)
	if _, err := d.Write(0, 100, 4, a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(10, 101, 2, b); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(20, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA || got[geom.SectorSize] != 0xBB ||
		got[2*geom.SectorSize] != 0xBB || got[3*geom.SectorSize] != 0xAA {
		t.Error("partial overwrite corrupted neighbouring sectors")
	}
}

func TestRangeValidation(t *testing.T) {
	d := MustNew(Toshiba())
	total := d.Geom().TotalSectors()
	if _, _, err := d.Read(0, total-1, 2); err == nil {
		t.Error("read past end accepted")
	}
	if _, _, err := d.Read(0, -1, 1); err == nil {
		t.Error("negative sector accepted")
	}
	if _, _, err := d.Read(0, 0, 0); err == nil {
		t.Error("zero-length read accepted")
	}
	if _, err := d.Write(0, 0, 2, make([]byte, 3*geom.SectorSize)); err == nil {
		t.Error("write with data longer than its extent accepted")
	}
	if _, err := d.Write(0, 0, 2, make([]byte, geom.SectorSize+1)); err == nil {
		t.Error("write with data not a whole number of sectors accepted")
	}
	// A payload shorter than the extent is its head; the rest is zeros.
	for _, n := range []int{0, 1} {
		if _, err := d.Write(0, 0, 2, make([]byte, n*geom.SectorSize)); err != nil {
			t.Errorf("write of 2 sectors with %d sectors of data: %v", n, err)
		}
	}
}

// A write whose payload is shorter than its extent stores zeros over the
// rest: a page never materialized stays absent, a page the tail covers
// whole is dropped, a partly covered one is cleared — and the service
// time is the whole extent's. Pages 10 and 12 hold data beforehand,
// pages 11 and 13 were never written.
func TestShortPayloadZeroesTail(t *testing.T) {
	const page = pageSectors
	for _, tc := range []struct {
		name      string
		sector    int64   // the write's first sector
		count     int     // the write's extent
		head      int     // sectors of payload
		wantPages []int64 // materialized afterwards, of 10..13
	}{
		{"no payload", 10 * page, 4 * page, 0, nil},
		{"head ends mid-page", 10 * page, 4 * page, page + 5, []int64{10, 11}},
		{"head ends on a page boundary", 10 * page, 4 * page, page, []int64{10}},
		{"unaligned extent", 10*page + 7, 2 * page, 3, []int64{10, 12}},
		{"tail inside one page", 12*page + 2, 5, 1, []int64{10, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(Fujitsu())
			for _, key := range []int64{10, 12} {
				if err := d.PokeData(key*page, bytes.Repeat([]byte{0x5A}, page*geom.SectorSize)); err != nil {
					t.Fatal(err)
				}
			}
			payload := bytes.Repeat([]byte{0xC3}, tc.head*geom.SectorSize)
			want := d.PeekData(0, 14*page)
			start := tc.sector * geom.SectorSize
			clear(want[start : start+int64(tc.count)*geom.SectorSize])
			copy(want[start:], payload)

			twin := MustNew(Fujitsu()) // the same write with the zeros spelt out
			full := make([]byte, tc.count*geom.SectorSize)
			copy(full, payload)
			tShort, err := d.Write(0, tc.sector, tc.count, payload)
			if err != nil {
				t.Fatal(err)
			}
			tFull, err := twin.Write(0, tc.sector, tc.count, full)
			if err != nil {
				t.Fatal(err)
			}
			if tShort != tFull {
				t.Errorf("short payload timing %+v, full payload %+v", tShort, tFull)
			}
			if got := d.PeekData(0, 14*page); !bytes.Equal(got, want) {
				t.Error("read back differs from the payload followed by zeros")
			}
			var pages []int64
			for key := int64(10); key <= 13; key++ {
				if d.materialized(key) {
					pages = append(pages, key)
				}
			}
			if fmt.Sprint(pages) != fmt.Sprint(tc.wantPages) {
				t.Errorf("materialized pages %v, want %v", pages, tc.wantPages)
			}
		})
	}
}

// Under fault.Crash a short-payload write tears exactly as the same
// write with its zeros spelt out: the split point is drawn over the
// whole extent with the same TornBytes argument, and the media ends up
// holding the same bytes.
func TestCrashTearsShortPayloadLikeFull(t *testing.T) {
	const count = 3 * pageSectors
	for seed := uint64(1); seed <= 40; seed++ {
		for _, head := range []int{0, 5, pageSectors, count - 1} {
			short, full := MustNew(Toshiba()), MustNew(Toshiba())
			for _, d := range []*Disk{short, full} {
				if err := d.PokeData(0, sectorFill(0x11, count+pageSectors)); err != nil {
					t.Fatal(err)
				}
				d.SetFaults(fault.NewInjector(fault.Plan{Seed: seed, CrashAfterOps: 1}))
			}
			payload := sectorFill(0x22, head)
			ext := make([]byte, count*geom.SectorSize)
			copy(ext, payload)
			if _, err := short.Write(0, 0, count, payload); !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("seed %d: crashing short write returned %v", seed, err)
			}
			torn := short.faults.TornBytes(count * geom.SectorSize)
			if _, err := full.Write(0, 0, count, ext); !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("seed %d: crashing full write returned %v", seed, err)
			}
			short.SetFaults(nil)
			full.SetFaults(nil)
			got, want := short.PeekData(0, count+pageSectors), full.PeekData(0, count+pageSectors)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, head %d sectors: media after the torn short write differs from the full write's (torn at %d)",
					seed, head, torn)
			}
			for i, b := range got[:count*geom.SectorSize] {
				w := byte(0x11)
				if i < torn {
					w = ext[i]
				}
				if b != w {
					t.Fatalf("seed %d, head %d: byte %d = %#x, want %#x (torn at %d)", seed, head, i, b, w, torn)
				}
			}
		}
	}
}

func TestSeekTimingMatchesCurve(t *testing.T) {
	d := MustNew(Toshiba())
	targetCyl := 400
	sector := d.Geom().FirstSectorOfCyl(targetCyl)
	_, tm, err := d.Read(0, sector, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SeekDist != 400 {
		t.Errorf("SeekDist = %d, want 400", tm.SeekDist)
	}
	want := seek.ToshibaMK156F.SeekMS(400)
	if math.Abs(tm.SeekMS-want) > 1e-9 {
		t.Errorf("SeekMS = %v, want %v", tm.SeekMS, want)
	}
	if d.HeadCylinder() != 400 {
		t.Errorf("head at %d after read", d.HeadCylinder())
	}
}

func TestZeroSeekOnSameCylinder(t *testing.T) {
	d := MustNew(Toshiba())
	sector := d.Geom().FirstSectorOfCyl(100)
	if _, _, err := d.Read(0, sector, 16); err != nil {
		t.Fatal(err)
	}
	_, tm, err := d.Read(50, sector+32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SeekDist != 0 || tm.SeekMS != 0 {
		t.Errorf("same-cylinder read: dist=%d seek=%v", tm.SeekDist, tm.SeekMS)
	}
}

func TestRotationalDelayBounded(t *testing.T) {
	d := MustNew(Toshiba())
	rev := d.Geom().RevolutionMS()
	for i := 0; i < 50; i++ {
		_, tm, err := d.Read(float64(i)*7.3, int64(i)*1111, 16)
		if err != nil {
			t.Fatal(err)
		}
		if tm.RotMS < 0 || tm.RotMS >= rev {
			t.Errorf("rotational delay %v outside [0, %v)", tm.RotMS, rev)
		}
	}
}

func TestRotationalPositionDeterministic(t *testing.T) {
	// Reading the same sector exactly one revolution apart must see the
	// same rotational delay.
	d1 := MustNew(Toshiba())
	d2 := MustNew(Toshiba())
	rev := d1.Geom().RevolutionMS()
	_, t1, err := d1.Read(5, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := d2.Read(5+rev, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1.RotMS-t2.RotMS) > 1e-6 {
		t.Errorf("rotational delays differ across one revolution: %v vs %v", t1.RotMS, t2.RotMS)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	d := MustNew(Toshiba())
	_, t1, err := d.Read(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := MustNew(Toshiba())
	_, t16, err := d2.Read(0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t16.TransferMS <= t1.TransferMS {
		t.Errorf("16-sector transfer (%v) not longer than 1-sector (%v)", t16.TransferMS, t1.TransferMS)
	}
	// One 8K block at 34 sectors/track: 16/34 of a revolution ≈ 7.8 ms,
	// possibly plus a head switch.
	want := 16.0 / 34.0 * d.Geom().RevolutionMS()
	if t16.TransferMS < want-1e-9 || t16.TransferMS > want+Toshiba().HeadSwitchMS+1e-9 {
		t.Errorf("8K transfer = %v ms, want about %v", t16.TransferMS, want)
	}
}

func TestServiceTimePlausible(t *testing.T) {
	// Mean service for random 8K requests should land in the ballpark
	// of the paper's no-rearrangement numbers (Toshiba: ~38 ms).
	d := MustNew(Toshiba())
	now := 0.0
	var sum float64
	n := 2000
	st := uint64(12345)
	for i := 0; i < n; i++ {
		st = st*6364136223846793005 + 1442695040888963407
		blk := int64(st>>33) % (d.Geom().TotalSectors() / 16)
		_, tm, err := d.Read(now, blk*16, 16)
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		sum += tm.TotalMS()
	}
	mean := sum / float64(n)
	if mean < 25 || mean > 50 {
		t.Errorf("random 8K read mean service = %v ms, want ~38", mean)
	}
}

func TestTrackBufferHit(t *testing.T) {
	d := MustNew(Fujitsu())
	// Sequential read: second block should be satisfied by read-ahead.
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t1.BufferHit {
		t.Fatal("first read cannot hit the buffer")
	}
	end := t1.TotalMS()
	_, t2, err := d.Read(end+20, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !t2.BufferHit {
		t.Fatal("sequential read after idle gap did not hit the read-ahead buffer")
	}
	if t2.SeekMS != 0 || t2.RotMS != 0 || t2.SeekDist != 0 {
		t.Errorf("buffer hit has mechanical delays: %+v", t2)
	}
	if t2.TotalMS() >= t1.TotalMS() {
		t.Errorf("buffer hit (%v) not faster than media read (%v)", t2.TotalMS(), t1.TotalMS())
	}
}

func TestTrackBufferNeedsIdleTime(t *testing.T) {
	d := MustNew(Fujitsu())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately after completion, read-ahead has had no time to fetch
	// a whole extra block.
	_, t2, err := d.Read(t1.TotalMS(), 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("buffer hit with zero idle time")
	}
}

func TestTrackBufferInvalidatedByWrite(t *testing.T) {
	d := MustNew(Fujitsu())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	end := t1.TotalMS() + 50
	if _, err := d.Write(end, 1716, 16, make([]byte, 16*geom.SectorSize)); err != nil {
		t.Fatal(err)
	}
	_, t2, err := d.Read(end+100, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("read hit a buffer that a write should have invalidated")
	}
}

func TestTrackBufferStopsAtCylinderEnd(t *testing.T) {
	d := MustNew(Fujitsu())
	g := d.Geom()
	// Read the last block of cylinder 10.
	cylEnd := g.FirstSectorOfCyl(11)
	start := cylEnd - 16
	_, t1, err := d.Read(0, start, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Even after a long idle period, the first block of cylinder 11 is
	// not buffered (read-ahead stops at the cylinder boundary).
	_, t2, err := d.Read(t1.TotalMS()+10000, cylEnd, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("read-ahead crossed a cylinder boundary")
	}
}

func TestToshibaHasNoBuffer(t *testing.T) {
	d := MustNew(Toshiba())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := d.Read(t1.TotalMS()+1000, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("Toshiba model reported a buffer hit")
	}
}

func TestCounters(t *testing.T) {
	d := MustNew(Fujitsu())
	if _, _, err := d.Read(0, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(50, 160, 16, make([]byte, 16*geom.SectorSize)); err != nil {
		t.Fatal(err)
	}
	r, w, _ := d.Counters()
	if r != 1 || w != 1 {
		t.Errorf("counters = (%d, %d)", r, w)
	}
}

func TestPokePeek(t *testing.T) {
	d := MustNew(Toshiba())
	data := bytes.Repeat([]byte{0x5A}, geom.SectorSize)
	if err := d.PokeData(77, data); err != nil {
		t.Fatal(err)
	}
	if got := d.PeekData(77, 1); !bytes.Equal(got, data) {
		t.Error("PeekData differs from PokeData")
	}
	if err := d.PokeData(0, make([]byte, 100)); err == nil {
		t.Error("unaligned poke accepted")
	}
	if d.HeadCylinder() != 0 {
		t.Error("PokeData moved the head")
	}
}

func TestDataIntegrityProperty(t *testing.T) {
	d := MustNew(Toshiba())
	now := 0.0
	f := func(sRaw uint32, val byte, count8 uint8) bool {
		count := int(count8)%16 + 1
		s := int64(sRaw) % (d.Geom().TotalSectors() - int64(count))
		data := bytes.Repeat([]byte{val}, count*geom.SectorSize)
		tm, err := d.Write(now, s, count, data)
		if err != nil {
			return false
		}
		now += tm.TotalMS()
		got, tm2, err := d.Read(now, s, count)
		if err != nil {
			return false
		}
		now += tm2.TotalMS()
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimingAlwaysNonNegative(t *testing.T) {
	d := MustNew(Fujitsu())
	now := 0.0
	f := func(sRaw uint32, gap uint16) bool {
		s := int64(sRaw) % (d.Geom().TotalSectors() - 16)
		s -= s % 16
		now += float64(gap) / 100
		got, tm, err := d.Read(now, s, 16)
		if err != nil || got == nil {
			return false
		}
		now += tm.TotalMS()
		return tm.SeekMS >= 0 && tm.RotMS >= 0 && tm.TransferMS > 0 && tm.OverheadMS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
