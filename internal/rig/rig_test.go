package rig

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/geom"
)

func TestDefaults(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Disk.Model().Name != "Toshiba MK156F" {
		t.Errorf("default disk = %q", r.Disk.Model().Name)
	}
	if r.Driver.Rearranged() {
		t.Error("default rig should not be rearranged")
	}
	if r.PartitionBlocks(0) == 0 {
		t.Error("no default partition")
	}
}

func TestRearrangedRig(t *testing.T) {
	r, err := New(Options{Disk: disk.Fujitsu(), ReservedCyls: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Driver.Rearranged() {
		t.Fatal("driver not rearranged")
	}
	first, count := r.Label.ReservedCyls()
	if count != 80 {
		t.Errorf("reserved count = %d", count)
	}
	// 784 is the largest block-aligned first cylinder at or below the
	// exact center (789) on the Fujitsu geometry.
	if first != 784 {
		t.Errorf("reserved first = %d, want 784 (aligned near-center)", first)
	}
}

func TestReservedFirstCylOverride(t *testing.T) {
	r, err := New(Options{ReservedCyls: 48, ReservedFirstCyl: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, count := r.Label.ReservedCyls()
	if first != 4 || count != 48 {
		t.Errorf("reserved = (%d, %d), want (4, 48)", first, count)
	}
	// Cylinder 0 holds the label; an edge request that only aligns there
	// is rejected rather than silently clobbering it.
	if _, err := New(Options{ReservedCyls: 48, ReservedFirstCyl: 3}); err == nil {
		t.Error("reserved region over the label cylinder accepted")
	}
}

func TestMultiplePartitions(t *testing.T) {
	r, err := New(Options{ReservedCyls: 48, PartitionBlocks: []int64{1000, 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PartitionBlocks(0); got != 1000 {
		t.Errorf("partition 0 = %d blocks", got)
	}
	if got := r.PartitionBlocks(1); got != 2000 {
		t.Errorf("partition 1 = %d blocks", got)
	}
	if got := r.PartitionBlocks(5); got != 0 {
		t.Errorf("missing partition = %d blocks", got)
	}
}

func TestOversizedPartitionRejected(t *testing.T) {
	if _, err := New(Options{PartitionBlocks: []int64{1 << 40}}); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestLongDiskNameTruncated(t *testing.T) {
	m := disk.Toshiba()
	m.Name = "An Extremely Long Disk Model Name That Exceeds The Label Field"
	if _, err := New(Options{Disk: m}); err != nil {
		t.Fatalf("long name not handled: %v", err)
	}
}

func TestBlockSizePassedThrough(t *testing.T) {
	r, err := New(Options{BlockSize: geom.Block4K})
	if err != nil {
		t.Fatal(err)
	}
	if r.Driver.BlockSize() != geom.Block4K {
		t.Errorf("block size = %d", r.Driver.BlockSize())
	}
}

func TestCancelledContextRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("New on a dead context: err = %v, want context.Canceled", err)
	}
}

func TestErrReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r, err := New(Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Errorf("live rig Err = %v", r.Err())
	}
	cancel()
	if !errors.Is(r.Err(), context.Canceled) {
		t.Errorf("cancelled rig Err = %v", r.Err())
	}
	// A rig built without a context can never be cancelled.
	r2, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Err() != nil {
		t.Errorf("context-free rig Err = %v", r2.Err())
	}
}

func TestCancelInterruptsEngine(t *testing.T) {
	// Cancelling the rig's context halts a long engine run at the next
	// interrupt poll instead of draining the whole queue.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := New(Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run() // settle formatting I/O first
	const n = 20000
	count := 0
	for i := 0; i < n; i++ {
		r.Eng.At(float64(i), func() {
			count++
			if count == 100 {
				cancel()
			}
		})
	}
	r.Eng.Run()
	if count >= n {
		t.Fatal("cancel did not interrupt the engine")
	}
	if r.Err() == nil {
		t.Error("Err() nil after cancellation")
	}
}

func TestMustNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Options{PartitionBlocks: []int64{1 << 40}})
}

func TestPaperDisk(t *testing.T) {
	for _, tc := range []struct {
		name, model string
		reserved    int
	}{
		{"", disk.Toshiba().Name, 48},
		{"toshiba", disk.Toshiba().Name, 48},
		{"fujitsu", disk.Fujitsu().Name, 80},
	} {
		m, reserved, err := PaperDisk(tc.name)
		if err != nil || m.Name != tc.model || reserved != tc.reserved {
			t.Errorf("PaperDisk(%q) = %q, %d, %v; want %q, %d", tc.name, m.Name, reserved, err, tc.model, tc.reserved)
		}
	}
	_, _, err := PaperDisk("quantum")
	if err == nil || !strings.Contains(err.Error(), `"quantum"`) || !strings.Contains(err.Error(), "toshiba, fujitsu") {
		t.Errorf("PaperDisk(quantum) error = %v; want the value and the valid names", err)
	}
}
