// Package devtest exercises implementations of driver.BlockDevice
// against the interface's contract, in the style of testing/fstest: an
// implementation package builds a Harness around its device and calls
// TestDevice to run the battery of conformance subtests.
//
// The battery pins the parts of the contract that are easy to violate
// from inside a new implementation and hard to debug from above it:
//
//   - geometry: BlockSize is positive, the label exists, and partition
//     0 covers every addressable block;
//   - data: writes of exactly one block are durable and read back
//     byte-identical, blocks do not alias one another, and reads
//     deliver exactly one block of data;
//   - bounds: out-of-range blocks fail with driver.ErrBadBlock, bad
//     partitions fail, and neither is delivered synchronously;
//   - write sizing: any length other than exactly one block fails;
//   - asynchrony: no completion callback — success or error — ever
//     runs inside the issuing call;
//   - payload: the buffer handed to WriteBlock is only ever read — not
//     by the write, nor by later reads, a member death, a degraded
//     write or a rebuild — so a caller may keep sharing it (the file
//     system hands the same inode-block image to write after write);
//   - read ownership: the buffer a read delivers is the receiver's. The
//     device keeps no reference to it (read-owned: scribbling on it
//     changes no later read), and nothing the device did recycles it, so
//     the receiver may hand it to driver.Recycle and every later read —
//     served from recycled buffers, several in flight at once, across a
//     member death, degraded writes and a rebuild — still returns what
//     was written (read-recycled);
//   - death: after the harness's Kill hook, requests either fail with
//     driver.ErrDead (unwrapping to fault.ErrCrash) or, for redundant
//     devices, keep succeeding with the data intact; and once the
//     Overwhelm hook pushes losses beyond the redundancy budget, a
//     redundant device fails requests with the same ErrDead taxonomy.
package devtest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/driver"
	"repro/internal/fault"
)

// Harness is one device under test plus the hooks devtest needs to
// drive it. Builders return a fresh harness per subtest, so subtests
// are independent and destructive hooks cannot leak state.
type Harness struct {
	// Dev is the device under test.
	Dev driver.BlockDevice
	// Run drives the device's simulation until quiescence; every
	// completion callback of previously issued requests has fired when
	// it returns.
	Run func()
	// Blocks is the number of addressable blocks of partition 0.
	Blocks int64
	// Kill, when non-nil, makes part of the device dead: the whole
	// device for a single disk, one member for a volume. It is called
	// only when the harness was built with kill=true, and may issue
	// (and discard) sacrificial requests to trip a fault plan. A nil
	// Kill skips the death subtests.
	Kill func()
	// DeadBlock is a block whose requests reach the part Kill killed.
	DeadBlock int64
	// DeadIsFatal reports the device's death semantics: true when
	// requests to DeadBlock must fail with driver.ErrDead after Kill
	// (single disk, concat, stripe), false when the device must keep
	// serving them (mirror, RAID-5/6 within the parity budget).
	DeadIsFatal bool
	// Overwhelm, when non-nil on a redundant harness, kills enough
	// additional members to exceed the redundancy budget (the mirror's
	// last replica, one more member than a parity layout covers). After
	// it runs, requests to DeadBlock must fail with driver.ErrDead
	// unwrapping to fault.ErrCrash, like any fatal device.
	Overwhelm func()
}

// Builder constructs a fresh device harness. kill is true when the
// subtest will invoke the Kill hook, so builders only wire destructive
// fault plans into harnesses whose other behavior no subtest depends
// on.
type Builder func(t *testing.T, kill bool) *Harness

// TestDevice runs the conformance battery against the devices build
// produces.
func TestDevice(t *testing.T, build Builder) {
	t.Run("geometry", func(t *testing.T) { testGeometry(t, build(t, false)) })
	t.Run("readback", func(t *testing.T) { testReadback(t, build(t, false)) })
	t.Run("write-sizing", func(t *testing.T) { testWriteSizing(t, build(t, false)) })
	t.Run("bounds", func(t *testing.T) { testBounds(t, build(t, false)) })
	t.Run("async-completion", func(t *testing.T) { testAsync(t, build(t, false)) })
	t.Run("payload-immutable", func(t *testing.T) {
		testPayloadImmutable(t, build(t, false))
		if h := build(t, true); h.Kill != nil {
			testPayloadImmutableDead(t, h)
		}
	})
	t.Run("read-owned", func(t *testing.T) {
		testReadOwned(t, build(t, false))
		if h := build(t, true); h.Kill != nil {
			testReadOwned(t, h)
		}
	})
	t.Run("read-recycled", func(t *testing.T) {
		testReadRecycled(t, build(t, false))
		if h := build(t, true); h.Kill != nil {
			testReadRecycledDead(t, h)
		}
	})
	t.Run("dead", func(t *testing.T) {
		h := build(t, true)
		if h.Kill == nil {
			t.Skip("harness has no kill hook")
		}
		testDead(t, h)
	})
}

// write issues one block write and drives the simulation to its
// completion.
func (h *Harness) write(t *testing.T, blk int64, data []byte) error {
	t.Helper()
	var res error
	fired := false
	h.Dev.WriteBlock(0, blk, data, func(_ []byte, err error) { res, fired = err, true })
	h.Run()
	if !fired {
		t.Fatalf("write of block %d never completed", blk)
	}
	return res
}

// read issues one block read and drives the simulation to its
// completion.
func (h *Harness) read(t *testing.T, blk int64) ([]byte, error) {
	t.Helper()
	var data []byte
	var res error
	fired := false
	h.Dev.ReadBlock(0, blk, func(d []byte, err error) { data, res, fired = d, err, true })
	h.Run()
	if !fired {
		t.Fatalf("read of block %d never completed", blk)
	}
	return data, res
}

// block builds one block-sized buffer filled with b.
func (h *Harness) block(b byte) []byte {
	return bytes.Repeat([]byte{b}, h.Dev.BlockSize().Bytes())
}

func testGeometry(t *testing.T, h *Harness) {
	bs := h.Dev.BlockSize()
	if bs.Bytes() <= 0 || bs.Sectors() <= 0 {
		t.Fatalf("BlockSize %v has non-positive size", bs)
	}
	if h.Blocks <= 0 {
		t.Fatalf("harness reports %d addressable blocks", h.Blocks)
	}
	lbl := h.Dev.Label()
	if lbl == nil {
		t.Fatal("Label() = nil")
	}
	p, err := lbl.Partition(0)
	if err != nil {
		t.Fatalf("no partition 0: %v", err)
	}
	if want := h.Blocks * int64(bs.Sectors()); p.Size < want {
		t.Fatalf("partition 0 holds %d sectors, need %d for %d blocks",
			p.Size, want, h.Blocks)
	}
}

func testReadback(t *testing.T, h *Harness) {
	// Three spread-out blocks with distinct patterns: aliasing between
	// members (a bad locate) or between neighbor blocks (a bad sector
	// translation) surfaces as cross-contamination.
	blks := []int64{0, h.Blocks / 2, h.Blocks - 1}
	for i, blk := range blks {
		if err := h.write(t, blk, h.block(byte(0xA0+i))); err != nil {
			t.Fatalf("write block %d: %v", blk, err)
		}
	}
	for i, blk := range blks {
		got, err := h.read(t, blk)
		if err != nil {
			t.Fatalf("read block %d: %v", blk, err)
		}
		if len(got) != h.Dev.BlockSize().Bytes() {
			t.Fatalf("read block %d delivered %d bytes, want one block (%d)",
				blk, len(got), h.Dev.BlockSize().Bytes())
		}
		if want := h.block(byte(0xA0 + i)); !bytes.Equal(got, want) {
			t.Fatalf("read block %d: data differs from what was written (got %#x... want %#x...)",
				blk, got[0], want[0])
		}
	}
}

func testWriteSizing(t *testing.T, h *Harness) {
	short := h.block(1)[:h.Dev.BlockSize().Bytes()-1]
	if err := h.write(t, 0, short); err == nil {
		t.Error("short write accepted")
	}
	long := append(h.block(1), 0)
	if err := h.write(t, 0, long); err == nil {
		t.Error("long write accepted")
	}
	if err := h.write(t, 0, nil); err == nil {
		t.Error("nil-buffer write accepted")
	}
	// Sizing errors must not corrupt the device or wedge the queue.
	if err := h.write(t, 0, h.block(2)); err != nil {
		t.Fatalf("valid write after sizing errors: %v", err)
	}
}

func testBounds(t *testing.T, h *Harness) {
	for _, blk := range []int64{-1, h.Blocks} {
		if _, err := h.read(t, blk); !errors.Is(err, driver.ErrBadBlock) {
			t.Errorf("read of block %d: err = %v, want ErrBadBlock", blk, err)
		}
		if err := h.write(t, blk, h.block(3)); !errors.Is(err, driver.ErrBadBlock) {
			t.Errorf("write of block %d: err = %v, want ErrBadBlock", blk, err)
		}
	}
	var res error
	fired := false
	h.Dev.ReadBlock(97, 0, func(_ []byte, err error) { res, fired = err, true })
	h.Run()
	if !fired || res == nil {
		t.Errorf("read of partition 97: err = %v (fired=%v), want an error", res, fired)
	}
}

func testAsync(t *testing.T, h *Harness) {
	// The interface contract: done fires at completion in simulated
	// time, never inside the issuing call — layered code (the cache's
	// readNext chains) re-enters the device from its callbacks and
	// would otherwise recurse on its own locks. Error deliveries are
	// the easy ones to get wrong.
	cases := []struct {
		name  string
		issue func(fired *bool)
	}{
		{"read", func(fired *bool) {
			h.Dev.ReadBlock(0, 0, func([]byte, error) { *fired = true })
		}},
		{"write", func(fired *bool) {
			h.Dev.WriteBlock(0, 0, h.block(4), func([]byte, error) { *fired = true })
		}},
		{"read out of range", func(fired *bool) {
			h.Dev.ReadBlock(0, -1, func([]byte, error) { *fired = true })
		}},
		{"write bad length", func(fired *bool) {
			h.Dev.WriteBlock(0, 0, nil, func([]byte, error) { *fired = true })
		}},
		{"read bad partition", func(fired *bool) {
			h.Dev.ReadBlock(97, 0, func([]byte, error) { *fired = true })
		}},
	}
	for _, c := range cases {
		fired := false
		c.issue(&fired)
		if fired {
			t.Errorf("%s: completion callback ran inside the issuing call", c.name)
		}
		h.Run()
		if !fired {
			t.Errorf("%s: completion callback never ran", c.name)
		}
	}
}

// payloads tracks write buffers and what they held when handed over.
type payloads struct {
	bufs, want [][]byte
}

// pattern builds one block-sized buffer of varied bytes (a constant
// fill would hide an in-place XOR of two equal payloads).
func (h *Harness) pattern(salt byte) []byte {
	buf := make([]byte, h.Dev.BlockSize().Bytes())
	for i := range buf {
		buf[i] = byte(i*7) ^ byte(i>>8) ^ salt
	}
	return buf
}

// pattern builds one such buffer and tracks it.
func (p *payloads) pattern(h *Harness, salt byte) []byte {
	buf := h.pattern(salt)
	p.bufs = append(p.bufs, buf)
	p.want = append(p.want, append([]byte(nil), buf...))
	return buf
}

func (p *payloads) check(t *testing.T, when string) {
	t.Helper()
	for i := range p.bufs {
		if !bytes.Equal(p.bufs[i], p.want[i]) {
			t.Fatalf("%s: the device modified write payload %d", when, i)
		}
	}
}

func testPayloadImmutable(t *testing.T, h *Harness) {
	var p payloads
	blks := []int64{0, 1, h.Blocks / 2, h.Blocks - 1}
	for i, blk := range blks {
		if err := h.write(t, blk, p.pattern(h, byte(0x31+i))); err != nil {
			t.Fatalf("write block %d: %v", blk, err)
		}
		p.check(t, "after the write completed")
	}
	for i, blk := range blks {
		got, err := h.read(t, blk)
		if err != nil {
			t.Fatalf("read block %d: %v", blk, err)
		}
		if !bytes.Equal(got, p.want[i]) {
			t.Fatalf("read block %d: data differs from what was written", blk)
		}
		// Scribbling on what a read delivered must not reach a payload.
		for j := range got {
			got[j] = 0xFF
		}
	}
	p.check(t, "after reading the blocks back")
	// Rewriting one block from a payload the device has already seen.
	if err := h.write(t, blks[1], p.bufs[0]); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	p.check(t, "after writing one payload to a second block")
}

// testPayloadImmutableDead repeats the check across the Kill hook: a
// write the dead part refuses, or, on a redundant device, degraded
// writes and reads and whatever rebuild the harness's Run carries out.
func testPayloadImmutableDead(t *testing.T, h *Harness) {
	var p payloads
	if !h.DeadIsFatal {
		if err := h.write(t, h.DeadBlock, p.pattern(h, 0x41)); err != nil {
			t.Fatalf("seeding write: %v", err)
		}
	}
	h.Kill()
	p.check(t, "after the kill")
	err := h.write(t, h.DeadBlock, p.pattern(h, 0x42))
	p.check(t, "after a write past the kill")
	if h.DeadIsFatal {
		if !errors.Is(err, driver.ErrDead) {
			t.Errorf("write after kill: err = %v, want ErrDead", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("write after member kill: %v", err)
	}
	if got, err := h.read(t, h.DeadBlock); err != nil || !bytes.Equal(got, p.want[1]) {
		t.Fatalf("readback after degraded write: err=%v", err)
	}
	p.check(t, "after a degraded read")
}

// shadow is what the device should hold: the last pattern each block
// was successfully written with, zeros for a block never written.
type shadow struct {
	h    *Harness
	want map[int64][]byte
	salt byte
	// lossy tolerates failed requests: the harness's fault plan is armed
	// and the device has no redundancy. What does succeed must still be
	// right.
	lossy bool
}

func newShadow(h *Harness) *shadow {
	return &shadow{h: h, want: map[int64][]byte{}, lossy: h.Kill != nil && h.DeadIsFatal}
}

// spread picks blocks from both ends and the middle of the device,
// neighbours included, so that on every layout they span several
// members and stripe rows.
func (h *Harness) spread() []int64 {
	return []int64{0, 1, 2, 3, h.Blocks / 2, h.Blocks/2 + 1, h.Blocks - 2, h.Blocks - 1}
}

func (s *shadow) expect(blk int64) []byte {
	if w, ok := s.want[blk]; ok {
		return w
	}
	return make([]byte, s.h.Dev.BlockSize().Bytes())
}

// write stores a fresh pattern in blk and records it if the device
// took it.
func (s *shadow) write(t *testing.T, blk int64) {
	t.Helper()
	s.salt++
	buf := s.h.pattern(s.salt)
	if err := s.h.write(t, blk, buf); err == nil {
		s.want[blk] = buf
	} else if !s.lossy {
		t.Fatalf("write block %d: %v", blk, err)
	}
}

func (s *shadow) check(t *testing.T, when string, blk int64, got []byte, err error) {
	t.Helper()
	if err != nil {
		if !s.lossy {
			t.Fatalf("%s: read block %d: %v", when, blk, err)
		}
		return
	}
	if !bytes.Equal(got, s.expect(blk)) {
		t.Fatalf("%s: read block %d: data differs from what was written (starts %#x, want %#x)",
			when, blk, got[0], s.expect(blk)[0])
	}
}

// readHeld reads every block of blks with all the reads in flight at
// once and checks them only after the last has completed, the caller
// still holding every buffer: two reads that were handed the same
// buffer (one recycled twice) cannot both be right.
func (s *shadow) readHeld(t *testing.T, when string, blks []int64) [][]byte {
	t.Helper()
	bufs := make([][]byte, len(blks))
	errs := make([]error, len(blks))
	fired := 0
	for i, blk := range blks {
		i := i
		s.h.Dev.ReadBlock(0, blk, func(d []byte, err error) { bufs[i], errs[i] = d, err; fired++ })
	}
	s.h.Run()
	if fired != len(blks) {
		t.Fatalf("%s: %d of %d reads completed", when, fired, len(blks))
	}
	for i, blk := range blks {
		s.check(t, when, blk, bufs[i], errs[i])
	}
	return bufs
}

// storm starts, for every block of blks, a chain of depth reads: each
// completion checks what it was given, hands the buffer back and issues
// the next read, so recycled buffers are retaken while other requests —
// the other chains, and whatever the caller issues before Run — are in
// flight. The blocks must not be written until the chains have run out.
func (s *shadow) storm(t *testing.T, when string, blks []int64, depth int) {
	for _, blk := range blks {
		blk, left := blk, depth
		var next driver.DoneFunc
		next = func(d []byte, err error) {
			s.check(t, when, blk, d, err)
			driver.Recycle(d)
			if left--; left > 0 {
				s.h.Dev.ReadBlock(0, blk, next)
			}
		}
		s.h.Dev.ReadBlock(0, blk, next)
	}
}

// testReadOwned: what a read delivers belongs to the receiver. With a
// kill hook the re-reads come from the degraded (or rebuilt) device.
func testReadOwned(t *testing.T, h *Harness) {
	s, blks := newShadow(h), h.spread()
	for _, blk := range blks {
		s.write(t, blk)
	}
	if h.Kill != nil {
		h.Kill()
	}
	for _, buf := range s.readHeld(t, "first read", blks) {
		for j := range buf {
			buf[j] = 0xFF
		}
	}
	// Other I/O, then the same blocks again: a device that kept the
	// delivered buffer (as a cache line, a parity operand, a rebuild
	// source) would now serve the scribble.
	s.write(t, blks[0])
	s.readHeld(t, "unrelated read", []int64{h.Blocks / 3})
	s.readHeld(t, "re-read after scribbling on the first read's buffers", blks)
}

// testReadRecycled: the receiver may recycle what a read delivered.
func testReadRecycled(t *testing.T, h *Harness) {
	s, blks := newShadow(h), h.spread()
	unwritten := []int64{h.Blocks / 3, h.Blocks/3 + 1}
	for _, blk := range blks {
		s.write(t, blk)
	}
	// Recycled buffers come back poisoned: reads of written and of
	// never-written blocks alike must overwrite every byte.
	s.storm(t, "read, recycle, read", append(unwritten, blks...), 4)
	h.Run()
	for _, buf := range s.readHeld(t, "reads in flight together", blks) {
		driver.Recycle(buf)
	}
	// Writes to one half of the blocks while the other half is read and
	// recycled: the device's own use of recycled buffers (parity
	// read-modify-write operands) meets the caller's.
	half := len(blks) / 2
	s.storm(t, "reads beside writes", blks[half:], 4)
	for _, blk := range blks[:half] {
		s.write(t, blk)
	}
	for _, buf := range s.readHeld(t, "final re-read", append(unwritten, blks...)) {
		driver.Recycle(buf)
	}
}

// testReadRecycledDead repeats it across the Kill hook: chains of
// recycling reads are in flight when the doomed part takes its first
// operation, through the degraded write that follows, and — on a
// harness with a hot spare — while the rebuild copies rows with the
// same pool's buffers.
func testReadRecycledDead(t *testing.T, h *Harness) {
	// Few blocks and short chains: harnesses arm lazier fault plans on
	// further members for the Overwhelm hook, which this traffic must
	// not trip.
	s, blks := newShadow(h), h.spread()[:4]
	quiet := []int64{h.Blocks / 3, h.Blocks/3 + 1}
	s.storm(t, "reads across the kill", quiet, 6)
	s.write(t, h.DeadBlock)
	h.Kill()
	for _, blk := range blks {
		s.write(t, blk)
	}
	s.write(t, h.DeadBlock)
	all := append(append([]int64{h.DeadBlock}, quiet...), blks...)
	s.storm(t, "read, recycle, read past the kill", all, 2)
	h.Run()
	for _, buf := range s.readHeld(t, "final re-read past the kill", all) {
		driver.Recycle(buf)
	}
}

func testDead(t *testing.T, h *Harness) {
	seed := h.block(0x5A)
	if !h.DeadIsFatal {
		// Redundant device: seed data before the kill so the surviving
		// replica can prove it still has it.
		if err := h.write(t, h.DeadBlock, seed); err != nil {
			t.Fatalf("seeding write: %v", err)
		}
	}
	h.Kill()
	if h.DeadIsFatal {
		if _, err := h.read(t, h.DeadBlock); !errors.Is(err, driver.ErrDead) {
			t.Errorf("read after kill: err = %v, want ErrDead", err)
		}
		if err := h.write(t, h.DeadBlock, seed); !errors.Is(err, driver.ErrDead) {
			t.Errorf("write after kill: err = %v, want ErrDead", err)
		}
		// The taxonomy: device death is a crash underneath, so layers
		// keying on the cause (the degraded-mirror accounting, crash
		// recovery) can unwrap it uniformly.
		if _, err := h.read(t, h.DeadBlock); !errors.Is(err, fault.ErrCrash) {
			t.Errorf("read after kill: err = %v does not unwrap to fault.ErrCrash", err)
		}
		return
	}
	got, err := h.read(t, h.DeadBlock)
	if err != nil {
		t.Fatalf("read after member kill: %v", err)
	}
	if !bytes.Equal(got, seed) {
		t.Fatal("read after member kill returned wrong data")
	}
	if err := h.write(t, h.DeadBlock, h.block(0x77)); err != nil {
		t.Fatalf("write after member kill: %v", err)
	}
	if got, err := h.read(t, h.DeadBlock); err != nil || !bytes.Equal(got, h.block(0x77)) {
		t.Fatalf("readback after degraded write: err=%v", err)
	}
	if h.Overwhelm == nil {
		return
	}
	// Beyond the redundancy budget the device converges on the fatal
	// taxonomy: ErrDead, unwrapping to the crash underneath.
	h.Overwhelm()
	if _, err := h.read(t, h.DeadBlock); !errors.Is(err, driver.ErrDead) {
		t.Errorf("read beyond redundancy budget: err = %v, want ErrDead", err)
	} else if !errors.Is(err, fault.ErrCrash) {
		t.Errorf("read beyond redundancy budget: err = %v does not unwrap to fault.ErrCrash", err)
	}
	if err := h.write(t, h.DeadBlock, h.block(0x78)); !errors.Is(err, driver.ErrDead) {
		t.Errorf("write beyond redundancy budget: err = %v, want ErrDead", err)
	}
}
