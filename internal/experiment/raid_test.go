package experiment

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/volume"
)

// TestRAIDRebuildEvidence runs the parity matrix once and asserts the
// three demonstrations the experiment exists to make: a degraded
// RAID-5 keeps serving reads after a member death, a throttled rebuild
// completes onto the hot spare while foreground load runs, and the
// scrub daemon repairs a planted latent sector error. The double-fault
// row additionally proves the P+Q budget: two dead members, zero
// failed file operations.
func TestRAIDRebuildEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("parity matrix simulation in -short mode")
	}
	// One day at a 15-minute window: every demonstration completes
	// inside day 0, and the matrix is six full-fan-out volume runs, so
	// this is the cheapest configuration that still proves all three.
	rs, err := Gather(context.Background(), []Need{NeedRAID},
		Options{Days: 1, WindowMS: 15 * 60 * 1000}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	byCfg := make(map[string]*Run, len(rs.RAID))
	for _, p := range rs.RAID {
		byCfg[p.Experiment.Name] = p
	}
	// get returns a row's volume measurements and failed file operations.
	get := func(cfg string) (*VolumePoint, int64) {
		p, ok := byCfg[cfg]
		if !ok {
			t.Fatalf("matrix has no %q row (got %d rows)", cfg, len(rs.RAID))
		}
		return p.Volume, p.WorkloadErrors
	}

	// Healthy baseline: every foreground write paid for parity.
	if h, _ := get("raid5-4"); h.RAID.ParityRecomputes == 0 {
		t.Errorf("raid5-4: ParityRecomputes = 0, want > 0")
	}

	// Degraded service: the member died, reads were reconstructed from
	// survivors + parity, and no file operation failed.
	d, dErrs := get("raid5-degraded")
	if d.DeadMembers != 1 {
		t.Errorf("raid5-degraded: DeadMembers = %d, want 1", d.DeadMembers)
	}
	if d.RAID.DegradedReads == 0 {
		t.Errorf("raid5-degraded: DegradedReads = 0, want > 0")
	}
	if dErrs != 0 {
		t.Errorf("raid5-degraded: WorkloadErrors = %d, want 0", dErrs)
	}

	// Rebuild: the throttled copy finished onto the spare (consuming
	// it) while the foreground workload kept running.
	r, rErrs := get("raid5-rebuild")
	if r.RAID.RebuildsDone < 1 {
		t.Errorf("raid5-rebuild: RebuildsDone = %d, want >= 1", r.RAID.RebuildsDone)
	}
	if r.RAID.RebuiltBlocks == 0 || r.RAID.RebuildMS <= 0 {
		t.Errorf("raid5-rebuild: RebuiltBlocks = %d, RebuildMS = %v, want both > 0",
			r.RAID.RebuiltBlocks, r.RAID.RebuildMS)
	}
	if r.SparesLeft != 0 {
		t.Errorf("raid5-rebuild: SparesLeft = %d, want 0 (spare consumed)", r.SparesLeft)
	}
	if r.Requests == 0 || rErrs != 0 {
		t.Errorf("raid5-rebuild: Requests = %d, WorkloadErrors = %d, want load and no errors",
			r.Requests, rErrs)
	}

	// Scrub: a pass found the planted latent sector error and rewrote
	// the block; the foreground never saw it (no degraded reads).
	s, sErrs := get("raid5-scrub")
	if s.RAID.ScrubPasses == 0 {
		t.Errorf("raid5-scrub: ScrubPasses = 0, want > 0")
	}
	if s.RAID.ScrubRepairs == 0 {
		t.Errorf("raid5-scrub: ScrubRepairs = 0, want > 0 (planted latent error not repaired)")
	}
	if s.RAID.DegradedReads != 0 || sErrs != 0 {
		t.Errorf("raid5-scrub: DegradedReads = %d, WorkloadErrors = %d, want 0 (scrub should beat the foreground to the error)",
			s.RAID.DegradedReads, sErrs)
	}

	// Double fault: P+Q absorbs two member deaths with no data loss.
	db, dbErrs := get("raid6-double")
	if db.DeadMembers != 2 {
		t.Errorf("raid6-double: DeadMembers = %d, want 2", db.DeadMembers)
	}
	if dbErrs != 0 || db.RAID.Unrecoverable != 0 {
		t.Errorf("raid6-double: WorkloadErrors = %d, Unrecoverable = %d, want 0",
			dbErrs, db.RAID.Unrecoverable)
	}
}

// TestRAIDConfigsCustomRow pins the -layout collapse: RAIDLayout
// reduces the matrix to a single custom row carrying the CLI's spare,
// rebuild-rate, and scrub-interval settings, while the unset flag
// reproduces the committed six-row matrix with those fields ignored.
func TestRAIDConfigsCustomRow(t *testing.T) {
	o := equivOptions()
	if got := raidConfigs(o); len(got) != 6 {
		t.Fatalf("default matrix: %d rows, want 6", len(got))
	}

	o.RAIDLayout = "raid6"
	o.RAIDSpare = 2
	o.RebuildRate = 5000
	o.ScrubIntervalMS = 1000
	rows := raidConfigs(o)
	if len(rows) != 1 {
		t.Fatalf("-layout matrix: %d rows, want 1", len(rows))
	}
	s := rows[0].Devices
	if s.Layout != volume.RAID6 || s.Disks != 5 {
		t.Errorf("custom row: layout %v disks %d, want raid6/5", s.Layout, s.Disks)
	}
	if s.Spare != 2 || s.RebuildRate != 5000 || s.ScrubIntervalMS != 1000 {
		t.Errorf("custom row dropped CLI settings: %+v", s)
	}
	if len(s.Faults) != s.Disks+s.Spare || s.Faults[1] == nil || s.Faults[1].CrashAfterOps == 0 {
		t.Errorf("custom row: want a member-1 kill plan over %d rigs, got %v", s.Disks+s.Spare, s.Faults)
	}
}

// TestLatentBadRange pins the scout's output shape: one block-sized
// physical range on member 0, inside the scrubbed region.
func TestLatentBadRange(t *testing.T) {
	bad := latentBadRange(volume.RAID5, 4, 16)
	if len(bad) != 1 {
		t.Fatalf("len = %d, want 1", len(bad))
	}
	if n := bad[0].End - bad[0].Start; n != 16 {
		t.Errorf("range spans %d sectors, want 16 (one block)", n)
	}
	if bad[0].Start <= 0 {
		t.Errorf("Start = %d, want > 0 (physical, past the label)", bad[0].Start)
	}
}
