package volume

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
)

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, geom.Block8K.Bytes()) }

func mustNew(t *testing.T, opts Options) *Volume {
	t.Helper()
	v, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// write and read are synchronous test helpers: they issue one volume
// request and drive the engine to completion.
func write(t *testing.T, v *Volume, blk int64, data []byte) error {
	t.Helper()
	var got error
	fired := false
	v.WriteBlock(0, blk, data, func(_ []byte, err error) { got, fired = err, true })
	v.Eng.Run()
	if !fired {
		t.Fatalf("write of block %d never completed", blk)
	}
	return got
}

func read(t *testing.T, v *Volume, blk int64) ([]byte, error) {
	t.Helper()
	var data []byte
	var got error
	fired := false
	v.ReadBlock(0, blk, func(d []byte, err error) { data, got, fired = d, err, true })
	v.Eng.Run()
	if !fired {
		t.Fatalf("read of block %d never completed", blk)
	}
	return data, got
}

func TestLocateStripe(t *testing.T) {
	v := mustNew(t, Options{Layout: Stripe, Disks: 4, StripeUnit: 8})
	cases := []struct {
		blk   int64
		disk  int
		mblk  int64
		label string
	}{
		{0, 0, 0, "first block"},
		{7, 0, 7, "last block of first unit"},
		{8, 1, 0, "first block of second unit"},
		{31, 3, 7, "last block of first round"},
		{32, 0, 8, "second round wraps to disk 0"},
		{100, 0, 28, "unit 12 -> disk 0, local unit 3"},
	}
	for _, c := range cases {
		i, mblk := v.locate(c.blk)
		if i != c.disk || mblk != c.mblk {
			t.Errorf("%s: locate(%d) = (%d, %d), want (%d, %d)",
				c.label, c.blk, i, mblk, c.disk, c.mblk)
		}
	}
}

func TestLocateConcat(t *testing.T) {
	v := mustNew(t, Options{Layout: Concat, Disks: 3})
	per := v.sizes[0]
	for _, c := range []struct {
		blk  int64
		disk int
		mblk int64
	}{
		{0, 0, 0},
		{per - 1, 0, per - 1},
		{per, 1, 0},
		{2*per + 5, 2, 5},
	} {
		i, mblk := v.locate(c.blk)
		if i != c.disk || mblk != c.mblk {
			t.Errorf("locate(%d) = (%d, %d), want (%d, %d)", c.blk, i, mblk, c.disk, c.mblk)
		}
	}
}

func TestRoundTripAllLayouts(t *testing.T) {
	for _, opts := range []Options{
		{Layout: Concat, Disks: 3},
		{Layout: Stripe, Disks: 4, StripeUnit: 4},
		{Layout: Mirror, Disks: 2},
		{Layout: Mirror, Disks: 3, ReadPolicy: ShortestQueue},
	} {
		v := mustNew(t, opts)
		// A spread of logical blocks including layout boundaries.
		blks := []int64{0, 1, 3, 4, 15, 16, 17, v.Blocks() / 2, v.Blocks() - 1}
		for k, blk := range blks {
			want := blockOf(byte(0x10 + k))
			if err := write(t, v, blk, want); err != nil {
				t.Fatalf("%s: write block %d: %v", opts.Layout, blk, err)
			}
			got, err := read(t, v, blk)
			if err != nil {
				t.Fatalf("%s: read block %d: %v", opts.Layout, blk, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: block %d round-trip mismatch", opts.Layout, blk)
			}
		}
		s := v.Stats()
		if s.Requests != int64(2*len(blks)) {
			t.Errorf("%s: stats = %+v, want %d requests", opts.Layout, s, 2*len(blks))
		}
		if s.RespMSSum <= 0 {
			t.Errorf("%s: no response time accumulated", opts.Layout)
		}
	}
}

// A striped volume must place consecutive stripe units on consecutive
// disks: writing one unit each lands exactly one unit of traffic per
// member.
func TestStripeDistributesUnits(t *testing.T) {
	v := mustNew(t, Options{Layout: Stripe, Disks: 4, StripeUnit: 2})
	base := memberRequests(v)
	for u := int64(0); u < 4; u++ {
		if err := write(t, v, u*2, blockOf(byte(u))); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range memberRequestsSince(v, base) {
		if n != 1 {
			t.Errorf("disk %d saw %d requests, want 1", i, n)
		}
	}
}

func TestMirrorWritesFanOut(t *testing.T) {
	v := mustNew(t, Options{Layout: Mirror, Disks: 3})
	base := memberRequests(v)
	if err := write(t, v, 7, blockOf(0xAB)); err != nil {
		t.Fatal(err)
	}
	for i, n := range memberRequestsSince(v, base) {
		if n != 1 {
			t.Errorf("member %d saw %d writes, want 1", i, n)
		}
	}
	// Every replica holds the block: read it back through each member's
	// driver directly.
	for i, m := range v.Members {
		var got []byte
		m.Driver.ReadBlock(0, 7, func(d []byte, err error) {
			if err != nil {
				t.Errorf("member %d: %v", i, err)
			}
			got = d
		})
		v.Eng.Run()
		if !bytes.Equal(got, blockOf(0xAB)) {
			t.Errorf("member %d replica differs", i)
		}
	}
}

func TestMirrorRoundRobinAlternates(t *testing.T) {
	v := mustNew(t, Options{Layout: Mirror, Disks: 2})
	if err := write(t, v, 0, blockOf(1)); err != nil {
		t.Fatal(err)
	}
	base := memberRequests(v)
	for k := 0; k < 6; k++ {
		if _, err := read(t, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	per := memberRequestsSince(v, base)
	if per[0] != 3 || per[1] != 3 {
		t.Errorf("round-robin reads split %v, want [3 3]", per)
	}
}

func TestMirrorShortestQueuePrefersIdle(t *testing.T) {
	v := mustNew(t, Options{Layout: Mirror, Disks: 2, ReadPolicy: ShortestQueue})
	if err := write(t, v, 0, blockOf(1)); err != nil {
		t.Fatal(err)
	}
	base := memberRequests(v)
	// Load member 0 with raw traffic, then issue volume reads without
	// draining: they must all pick the idle member 1.
	const raw = 8
	for k := 0; k < raw; k++ {
		v.Members[0].Driver.ReadBlock(0, int64(k)*100, nil)
	}
	for k := 0; k < 4; k++ {
		v.ReadBlock(0, 0, nil)
	}
	v.Eng.Run()
	per := memberRequestsSince(v, base)
	per[0] -= raw // member 0 carries the raw reads
	if per[0] != 0 || per[1] != 4 {
		t.Errorf("shortest-queue reads split %v, want [0 4]", per)
	}
}

func TestMirrorSurvivesDeadMember(t *testing.T) {
	// Member 1 dies on its 10th device operation; the 2-way mirror must
	// keep serving reads and writes from member 0.
	v := mustNew(t, Options{
		Layout: Mirror,
		Disks:  2,
		Faults: []*fault.Plan{nil, {CrashAfterOps: 10}},
	})
	want := blockOf(0x5A)
	for k := int64(0); k < 30; k++ {
		if err := write(t, v, k, want); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	if n := v.DeadMembers(); n != 1 {
		t.Fatalf("DeadMembers = %d, want 1", n)
	}
	if !v.Members[1].Driver.Dead() {
		t.Fatal("member 1 should be the dead one")
	}
	for k := int64(0); k < 30; k++ {
		got, err := read(t, v, k)
		if err != nil {
			t.Fatalf("degraded read %d: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded read %d: wrong data", k)
		}
	}
	if v.Degraded() == 0 {
		t.Error("no degraded operations counted")
	}
}

func TestStripeDeadMemberFailsRequest(t *testing.T) {
	v := mustNew(t, Options{
		Layout:     Stripe,
		Disks:      2,
		StripeUnit: 1,
		Faults:     []*fault.Plan{nil, {CrashAfterOps: 1}},
	})
	// Block 1 lives on member 1, which dies on its first operation.
	if err := write(t, v, 1, blockOf(1)); err == nil {
		t.Fatal("first write to crashing member reported success")
	}
	if _, err := read(t, v, 1); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("read from dead member: err = %v, want ErrCrash", err)
	}
	// The surviving member still works: no redundancy, but no spread.
	if err := write(t, v, 0, blockOf(2)); err != nil {
		t.Fatalf("healthy member write: %v", err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Options{Layout: "raid7"}); err == nil {
		t.Error("unknown layout accepted")
	}
	if _, err := New(Options{Layout: Mirror, Disks: 1}); err == nil {
		t.Error("1-disk mirror accepted")
	}
	if _, err := New(Options{Layout: Stripe, Disks: 2, StripeUnit: 1 << 30}); err == nil {
		t.Error("stripe unit larger than member accepted")
	}
	if _, err := New(Options{ReadPolicy: "random"}); err == nil {
		t.Error("unknown read policy accepted")
	}
	v := mustNew(t, Options{Layout: Stripe, Disks: 2})
	var errs []error
	collect := func(_ []byte, err error) { errs = append(errs, err) }
	v.ReadBlock(3, 0, collect)             // no such partition
	v.ReadBlock(0, -1, collect)            // negative block
	v.ReadBlock(0, v.Blocks(), collect)    // beyond volume
	v.WriteBlock(0, 0, []byte{1}, collect) // short data
	v.Eng.Run()
	if len(errs) != 4 {
		t.Fatalf("got %d completions, want 4", len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestLabelCoversVolume(t *testing.T) {
	for _, opts := range []Options{
		{Layout: Concat, Disks: 2},
		{Layout: Stripe, Disks: 4, StripeUnit: 16},
		{Layout: Mirror, Disks: 2},
	} {
		v := mustNew(t, opts)
		p, err := v.Label().Partition(0)
		if err != nil {
			t.Fatalf("%s: %v", opts.Layout, err)
		}
		bsec := int64(v.BlockSize().Sectors())
		if p.Size != v.Blocks()*bsec {
			t.Errorf("%s: partition %d sectors, volume %d blocks", opts.Layout, p.Size, v.Blocks())
		}
		if got := v.Label().VirtualSectors(); got < p.Start+p.Size {
			t.Errorf("%s: label %d sectors cannot hold partition", opts.Layout, got)
		}
	}
}

// memberRequests returns each member driver's lifetime count of
// completed requests, in member order.
func memberRequests(v *Volume) []int64 {
	out := make([]int64, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.Driver.Counters().Requests
	}
	return out
}

// memberRequestsSince returns the requests each member completed since
// base was taken.
func memberRequestsSince(v *Volume, base []int64) []int64 {
	out := memberRequests(v)
	for i := range out {
		out[i] -= base[i]
	}
	return out
}
