package core

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/hotlist"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/volume"
)

// TestAnalyzerCountsEveryRequestOnce, an identity: a scaled trace replayed
// through tracein's view under per-disk analyzers polling each second
// leaves counts that sum to the requests completed, none missed, each
// block's its references in Scale.Apply's trace; closed, the analyzers
// leave their drivers no table and count nothing more. On a bare disk
// at 1× and a 4-disk stripe at 4×; not via Execute: a Run has no counts.
func TestAnalyzerCountsEveryRequestOnce(t *testing.T) {
	const unit = 16 // the stripe unit, in blocks
	for _, disks := range []int{0, 4} {
		var eng *sim.Engine
		var dev driver.BlockDevice
		var drivers []*driver.Driver
		if disks == 0 {
			r := newRig(t)
			eng, dev, drivers = r.Eng, r.Driver, []*driver.Driver{r.Driver}
		} else {
			v, err := volume.New(volume.Options{Layout: volume.Stripe, Disks: disks, StripeUnit: unit,
				ReservedCyls: 48})
			if err != nil {
				t.Fatal(err)
			}
			eng, dev = v.Eng, v
			for _, m := range v.Members {
				drivers = append(drivers, m.Driver)
			}
		}
		copies := max(disks, 1)
		bsec := int64(dev.BlockSize().Sectors())
		blocks := dev.Label().Parts[0].Size / bsec
		rnd, recs := sim.NewRand(3), make([]trace.Record, 3001) // not a multiple of the copies
		for i := range recs {
			recs[i] = trace.Record{TimeMS: float64(i) * 20, Write: i%5 == 0, Block: rnd.Int63n(400) * (blocks / 400)}
		}
		scale := tracein.Scale{Compress: float64(copies), Copies: copies,
			ShiftBlocks: blocks / int64(copies), WrapBlocks: blocks}
		counts := make([]*hotlist.Exact, len(drivers))
		rears := make([]*Rearranger, len(drivers))
		for i, d := range drivers {
			counts[i] = hotlist.NewExact()
			ra, err := New(eng, d, Config{Counter: counts[i], PollPeriodMS: 1000})
			if err != nil {
				t.Fatal(err)
			}
			rears[i] = ra
			ra.StartMonitoring()
		}
		rep, err := tracein.NewReplayer(eng, dev, recs, tracein.ReplayOptions{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start(func(tracein.Result) {
			for _, ra := range rears {
				ra.StopMonitoring()
			}
		})
		eng.Run()
		// Each reference's original sector on the member it maps to.
		want := []map[int64]int64{{}, {}, {}, {}}[:len(drivers)]
		for _, rec := range scale.Apply(recs) {
			m, blk := 0, rec.Block
			if disks > 0 {
				su := rec.Block / unit
				m, blk = int(su%int64(disks)), su/int64(disks)*unit+rec.Block%unit
			}
			lbl := drivers[m].Label()
			want[m][lbl.MapVirtual(lbl.Parts[0].Start+blk*bsec)]++
		}
		var counted, requests int64
		for i, d := range drivers {
			requests += d.Counters().Requests
			if n := rears[i].Missed(); n != 0 {
				t.Errorf("%d disks: disk %d missed %d requests", disks, i, n)
			}
			for _, bc := range counts[i].Distribution() {
				counted += bc.Count
				if w := want[i][bc.Block]; bc.Count != w {
					t.Errorf("%d disks: disk %d sector %d counted %d times, referenced %d", disks, i, bc.Block, bc.Count, w)
				}
			}
		}
		if n := int64(scale.Len(recs)); counted != requests || requests != n {
			t.Errorf("%d disks: analyzers counted %d references, drivers completed %d requests, the scaled trace has %d",
				disks, counted, requests, n)
		}
		// Closed, the analyzers drop their drivers' tables: a second
		// replay is recorded nowhere and leaves the counts as they were.
		for _, ra := range rears {
			ra.Close()
		}
		if rep, err = tracein.NewReplayer(eng, dev, recs, tracein.ReplayOptions{Scale: scale}); err != nil {
			t.Fatal(err)
		}
		rep.Start(nil)
		eng.Run()
		for i, d := range drivers {
			sectors, missed := d.ReadRequestTable()
			if d.RequestTableSize() != 0 || sectors != nil || missed != 0 {
				t.Errorf("%d disks: disk %d after Close: a %d-entry table, %d sectors, %d missed; want none",
					disks, i, d.RequestTableSize(), len(sectors), missed)
			}
			rears[i].Poll()
			for _, bc := range counts[i].Distribution() {
				counted -= bc.Count
			}
		}
		if counted != 0 {
			t.Errorf("%d disks: the counts moved by %d references after Close", disks, -counted)
		}
	}
}
