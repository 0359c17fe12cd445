package experiment

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// TestRotationAndTransferArithmetic: random single-block reads on an
// idle disk, run through Execute as a replay on the bare Toshiba with no
// rearranger and spaced so each finds the disk idle (no read queues),
// wait half a revolution on average for their sector, and transfer for
// the block's sectors at the track rate — plus, for the blocks that
// straddle a track boundary, one head switch, or a one-cylinder seek
// where the boundary is a cylinder's. A 16-sector block on the Toshiba's
// 34-sector tracks straddles one in 35 of 85 start phases, so the bare
// "sectors ÷ track rate" falls short of the measured mean by about 7 %;
// the crossings are counted here from each read's block number, which
// maps to its sectors by a whole number of cylinders, and with them the
// sum holds to rounding. The rotation bound is about 4.6 standard errors
// of a mean of 8000 uniform delays.
func TestRotationAndTransferArithmetic(t *testing.T) {
	const reads, gapMS = 8000, 100.0 // a read takes under 70 ms
	rnd := sim.NewRand(7)
	recs := make([]trace.Record, reads)
	for i := range recs {
		recs[i] = trace.Record{TimeMS: float64(i) * gapMS, Block: rnd.Int63n(16000)}
	}
	path := filepath.Join(t.TempDir(), "reads.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Execute(context.Background(), Experiment{
		Workload: Workload{Source: Trace, TracePath: path, Mode: tracein.OpenLoop},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Days) != 1 || run.Replay.Errors != 0 {
		t.Fatalf("%d windows, %d errors; want one clean replay", len(run.Days), run.Replay.Errors)
	}
	side := run.Days[0].Stats.ReadSide
	if n := side.Count(); n != reads || side.QueueMS != 0 {
		t.Fatalf("%d reads queued %.3f ms in all; want %d reads, each on an idle disk", n, side.QueueMS, reads)
	}

	m := run.Experiment.model
	g := m.Geom
	revMS := g.RevolutionMS()
	rot := side.RotMS / reads
	if math.Abs(rot/(revMS/2)-1) > 0.03 {
		t.Errorf("mean rotational delay %.3f ms, want half a revolution, %.3f ms ± 3 %%", rot, revMS/2)
	}

	// The partition starts one block in, and the reserved region shifts
	// the blocks past it by whole cylinders: block b's first sector is
	// (b+1)·n in its cylinder's phase.
	n := int64(geom.Block8K.Sectors()) // every experiment's block
	spt, spc := int64(g.SectorsPerTrack), int64(g.SectorsPerCyl())
	bare := float64(n) * revMS / float64(spt)
	var switches float64
	for _, r := range recs {
		first, last := (r.Block+1)*n, (r.Block+2)*n-1
		switch {
		case first/spc != last/spc:
			switches += run.Curve.SeekMS(1)
		case first/spt != last/spt:
			switches += m.HeadSwitchMS
		}
	}
	want := bare + switches/reads
	got := side.TransferMS / reads
	t.Logf("per read: rotation %.4f ms (half a revolution %.4f); transfer %.4f ms, of which %.4f ms sectors ÷ track rate (%.1f %% short) and %.4f ms switches",
		rot, revMS/2, got, bare, (1-bare/got)*100, switches/reads)
	if math.Abs(got/want-1) > 1e-9 {
		t.Errorf("mean transfer %.6f ms, want sectors ÷ track rate plus switches, %.6f ms", got, want)
	}
}
