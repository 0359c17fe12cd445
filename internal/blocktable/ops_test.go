package blocktable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// This file checks the table's kept image and checksum against a
// reference encoder that knows nothing of them: the per-entry loop and
// full crc EncodeTo used before the table kept its own encoding, run
// over a shadow map of what the table should hold. A program of table
// operations — adds, removes at the front (Clean's order), back and
// middle, dirty marks, a recovery-style MarkAllDirty and generation
// bumps — is read from a byte string, so the seeded battery and the
// fuzz target drive the same interpreter.

// shadowEntry is what the reference knows about one mapping.
type shadowEntry struct {
	new   int64
	dirty bool
}

// refEncode is the reference encoding of a table holding shadow.
func refEncode(blockSectors int, gen uint64, shadow map[int64]shadowEntry) []byte {
	origs := make([]int64, 0, len(shadow))
	for o := range shadow {
		origs = append(origs, o)
	}
	sort.Slice(origs, func(i, j int) bool { return origs[i] < origs[j] })
	used := headerSize + len(origs)*entrySize
	buf := make([]byte, EncodedSectors(len(origs))*geom.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[offHdrMagic:], Magic)
	be.PutUint16(buf[offHdrVersion:], Version)
	be.PutUint16(buf[offHdrBlkSec:], uint16(blockSectors))
	be.PutUint32(buf[offHdrCount:], uint32(len(origs)))
	be.PutUint64(buf[offHdrGen:], gen)
	for i, o := range origs {
		at := headerSize + i*entrySize
		be.PutUint64(buf[at:], uint64(o))
		be.PutUint64(buf[at+8:], uint64(shadow[o].new))
		var flags uint16
		if shadow[o].dirty {
			flags |= flagDirty
		}
		be.PutUint16(buf[at+16:], flags)
	}
	be.PutUint32(buf[offHdrCksum:], crc(buf[offHdrGen:used]))
	return buf
}

// runTableOps interprets prog as a table program, checking the table
// against the reference after every operation. Each operation takes
// three bytes: the opcode and a 16-bit argument.
func runTableOps(t *testing.T, prog []byte) {
	t.Helper()
	const bsec = 16
	tab := New(geom.Block8K)
	shadow := map[int64]shadowEntry{}
	var gen uint64
	// scratch is poisoned so EncodeTo must write every byte it returns.
	scratch := bytes.Repeat([]byte{0xAA}, 8*1024)
	sorted := func() []int64 {
		origs := make([]int64, 0, len(shadow))
		for o := range shadow {
			origs = append(origs, o)
		}
		sort.Slice(origs, func(i, j int) bool { return origs[i] < origs[j] })
		return origs
	}
	remove := func(o int64, what string) {
		e, ok := tab.Remove(o)
		want := shadow[o]
		if !ok || e.Orig != o || e.New != want.new || e.Dirty != want.dirty {
			t.Fatalf("Remove(%d) at the %s = %+v, %v; want new %d dirty %v", o, what, e, ok, want.new, want.dirty)
		}
		delete(shadow, o)
	}
	for step := 0; len(prog) >= 3; step, prog = step+1, prog[3:] {
		arg := int64(binary.BigEndian.Uint16(prog[1:]))
		origs := sorted()
		switch op := prog[0] % 10; {
		case op < 4: // add, most of the time
			o, n := arg*bsec, (1<<20+arg*7%65536)*bsec
			_, taken := shadow[o]
			if _, ok := tab.ReverseLookup(n); ok {
				taken = true
			}
			if err := tab.Add(o, n); (err != nil) != taken {
				t.Fatalf("step %d: Add(%d, %d) = %v, slot taken %v", step, o, n, err, taken)
			}
			if !taken {
				shadow[o] = shadowEntry{new: n}
			}
		case op == 4 && len(origs) > 0:
			remove(origs[0], "front")
		case op == 5 && len(origs) > 0:
			remove(origs[len(origs)-1], "back")
		case op == 6 && len(origs) > 0:
			remove(origs[int(arg)%len(origs)], "middle")
		case op == 7:
			// An entry, or (arg odd) an address the table may not hold.
			o := arg * bsec
			if arg%2 == 0 && len(origs) > 0 {
				o = origs[int(arg)%len(origs)]
			}
			e, held := shadow[o]
			if got := tab.MarkDirty(o); got != held {
				t.Fatalf("step %d: MarkDirty(%d) = %v, held %v", step, o, got, held)
			}
			if held {
				e.dirty = true
				shadow[o] = e
			}
		case op == 8 && arg%8 == 0:
			tab.MarkAllDirty()
			for o, e := range shadow {
				e.dirty = true
				shadow[o] = e
			}
		case op == 9:
			gen = gen<<16 | uint64(arg)
			tab.Gen = gen
		}
		want := refEncode(tab.BlockSectors(), gen, shadow)
		got := tab.EncodeTo(scratch[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d (op %d, %d entries): EncodeTo differs from the reference encoder%s",
				step, prog[0]%10, len(shadow), firstByteDiff(got, want))
		}
		if len(got) <= cap(scratch) {
			scratch = got // keep reusing the poisoned, dirty buffer
		}
		dec, err := Decode(got)
		if err != nil {
			t.Fatalf("step %d: Decode(EncodeTo): %v", step, err)
		}
		if again := dec.Encode(); !bytes.Equal(again, want) {
			t.Fatalf("step %d: Decode(EncodeTo) does not re-encode to the same image%s", step, firstByteDiff(again, want))
		}
		if tab.Len() != len(shadow) || dec.Len() != len(shadow) {
			t.Fatalf("step %d: Len %d, decoded %d, want %d", step, tab.Len(), dec.Len(), len(shadow))
		}
	}
}

// firstByteDiff locates the first differing byte of two images.
func firstByteDiff(got, want []byte) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf(" at byte %d", i)
		}
	}
	return fmt.Sprintf(": lengths %d and %d", len(got), len(want))
}

// TestTableOpsMatchReference runs seeded random programs. Addresses come
// from a range small enough that removes, duplicate adds and dirty marks
// hit live entries; the first two thirds of a program mostly add, so the
// image grows past the checksum's 5552-byte run before the rest drains
// it.
func TestTableOpsMatchReference(t *testing.T) {
	seeds, steps := 6, 1200
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rnd := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*steps)
		for i := 0; i < steps; i++ {
			prog[3*i] = byte(rnd.Intn(256))
			if i < steps*2/3 && rnd.Intn(3) > 0 {
				prog[3*i] = byte(rnd.Intn(4)) // grow, then drain
			}
			binary.BigEndian.PutUint16(prog[3*i+1:], uint16(rnd.Intn(2000)))
		}
		runTableOps(t, prog)
	}
}

// FuzzTableOps runs arbitrary table programs against the reference.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 0, 9, 7, 0, 5, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 7, 0, 2, 6, 0, 1, 9, 0xff, 0xff, 4, 0, 0, 8, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runTableOps(t, prog)
	})
}
