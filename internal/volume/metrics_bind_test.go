package volume

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// snapVal reads one metric's rendered value out of a registry snapshot.
func snapVal(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("snapshot has no metric %q", name)
	return 0
}

// TestBindMetricsParity covers the volume-level instrument bindings on
// a parity layout: the RAID counters and the rebuild-progress gauge
// must render the same numbers RAID() reports, and the gauge must read
// a mid-rebuild fraction in (0, 1] while the spare copy is running and
// 0 once it is done.
func TestBindMetricsParity(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID5, Disks: 3, StripeUnit: 1, Spare: 1, Disk: tinyDisk(),
		// Slow the copy to 2 blocks/s so the bounded time windows below
		// catch it mid-device: Run() drains to quiescence, which would
		// complete the whole rebuild inside the call that kills the
		// member, so this test drives time with RunUntil only.
		RebuildRate: 2,
		Faults:      []*fault.Plan{nil, {Seed: 3, CrashAfterOps: 30}},
	})
	reg := metrics.NewRegistry()
	v.BindMetrics(reg)

	if got := v.Layout(); got != RAID5 {
		t.Fatalf("Layout() = %v, want %v", got, RAID5)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("Err() = %v on a live volume", err)
	}

	for k := int64(0); k < 40; k++ {
		v.WriteBlock(0, k%16, blockOf(byte(k)), nil)
		v.Eng.RunUntil(v.Eng.Now() + 100)
	}
	if v.DeadMembers() != 1 {
		t.Fatalf("DeadMembers() = %d after the kill plan, want 1", v.DeadMembers())
	}
	if !v.Rebuilding() {
		t.Fatalf("rebuild did not start after the member death")
	}
	if p := snapVal(t, reg, "volume_rebuild_progress"); p <= 0 || p > 1 {
		t.Errorf("mid-rebuild volume_rebuild_progress = %v, want in (0, 1]", p)
	}
	v.Run() // drain: no armed scrub, so quiescence completes the rebuild
	if v.Rebuilding() {
		t.Fatalf("rebuild still in progress after drain")
	}
	if p := snapVal(t, reg, "volume_rebuild_progress"); p != 0 {
		t.Errorf("idle volume_rebuild_progress = %v, want 0", p)
	}

	st := v.RAID()
	checks := []struct {
		name string
		want float64
	}{
		{"volume_parity_recomputes", float64(st.ParityRecomputes)},
		{"volume_degraded_reads", float64(st.DegradedReads)},
		{"volume_rebuilt_blocks", float64(st.RebuiltBlocks)},
		{"volume_scrub_repairs", float64(st.ScrubRepairs)},
		{"volume_dead_members", float64(v.DeadMembers())},
	}
	for _, c := range checks {
		if got := snapVal(t, reg, c.name); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	if st.ParityRecomputes == 0 {
		t.Errorf("ParityRecomputes = 0 after 40 writes")
	}
	if st.RebuiltBlocks == 0 {
		t.Errorf("RebuiltBlocks = 0 after a completed rebuild")
	}
}

// TestDispatched covers the event-count accessor: it must move when
// work runs.
func TestDispatched(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID5, Disks: 3, StripeUnit: 1, Disk: tinyDisk()})
	defer v.Close()
	for k := int64(0); k < 10; k++ {
		v.WriteBlock(0, k, blockOf(byte(k)), nil)
		v.Run()
	}
	if v.Eng.Dispatched() == 0 {
		t.Fatal("the engine dispatched no event for 10 writes")
	}
}
