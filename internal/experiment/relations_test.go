package experiment

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
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

// TestLearningPassIsThePlainReplay: a rearranging replay's off row is
// its learning pass, so that pass must measure exactly what a replay
// with no rearranger does — the same window, the same volume figures,
// the same replay figures and counters. Checked on the trace-replay
// matrix's three shapes: open and closed loop on a concat, and four
// copies open loop on a 4-disk stripe.
func TestLearningPassIsThePlainReplay(t *testing.T) {
	concat := Devices{Layout: volume.Concat}
	stripe := Devices{Layout: volume.Stripe, Disks: 4, StripeUnit: 16}
	for _, tc := range []struct {
		name string
		d    Devices
		w    Workload
	}{
		{"open-1x", concat, Workload{Mode: tracein.OpenLoop}},
		{"closed-1x", concat, Workload{Mode: tracein.ClosedLoop}},
		{"open-4x-stripe4", stripe, Workload{Mode: tracein.OpenLoop, Copies: 4}},
	} {
		tc.w.Source = Trace
		run := func(r *Rearrange) *Run {
			got, err := Execute(context.Background(), Experiment{
				Name: tc.name, Devices: tc.d, Workload: tc.w, Rearrange: r, WindowMS: 0.1 * workload.HourMS,
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return got
		}
		plain, rearr := run(nil), run(&Rearrange{})
		off := rearr.Off
		if plain.Off != nil || off == nil || len(off.Days) != 1 || len(rearr.Days) != 2 || rearr.installed() == 0 {
			t.Fatalf("%s: plain run's twin %v; rearranged run's twin %v, %d passes, %d blocks installed; want no twin, then a twin of one pass before a rearranged pass",
				tc.name, plain.Off, off, len(rearr.Days), rearr.installed())
		}
		if off.Experiment.Rearrange != nil || off.Experiment.Name != tc.name || off.Installed != nil {
			t.Errorf("%s: off twin describes %+v, installed %v; want the run without a rearranger",
				tc.name, off.Experiment, off.Installed)
		}
		if !reflect.DeepEqual(off.Days[0], plain.Days[0]) || !reflect.DeepEqual(rearr.Days[0], plain.Days[0]) {
			t.Errorf("%s: the learning pass measured %+v, a plain replay %+v", tc.name,
				off.Days[0].Metrics(off.Curve, AllRequests), plain.Days[0].Metrics(plain.Curve, AllRequests))
		}
		if !reflect.DeepEqual(off.Replay, plain.Replay) || !reflect.DeepEqual(off.Counters, plain.Counters) {
			t.Errorf("%s: learning pass %+v, %+v; plain replay %+v, %+v",
				tc.name, off.Replay, off.Counters, plain.Replay, plain.Counters)
		}
		if !reflect.DeepEqual(off.Volume, plain.Volume) {
			t.Errorf("%s: learning pass's volume %+v, plain replay's %+v", tc.name, off.Volume, plain.Volume)
		}
	}
}

// TestSeekTravelAcrossNights lifts the driver's TestSeekArithmetic to
// every disk of an Execute run, nights included. Every device operation
// is one span carrying the cylinders its seek crossed, so per disk the
// spans' distances add up to the disk's lifetime head travel
// (driver_seek_cylinders): the nights' block moves and table writes,
// which no window counts, complete as operations like any other. And
// per measured window, Σ d·SchedDist(d) over its members adds up to
// the distances of the window's spans: the first of the window's count
// of request spans completing after it opened. Checked on a short
// rearranging on/off run of the system file system (populate, a
// rearranging night and a cleaning night between three days) and on
// the trace-replay matrix's 4-disk stripe, whose windows are its two
// passes around a night.
func TestSeekTravelAcrossNights(t *testing.T) {
	if testing.Short() {
		t.Skip("two observed runs in -short mode")
	}
	system := Options{WindowMS: 0.2 * workload.HourMS}.paper("toshiba", "toshiba", System, 3)
	for _, tc := range []struct {
		e Experiment
		// opened is when window k opened, or 0 when the windows are the
		// run's only request traffic and follow each other.
		opened func(k int) float64
	}{
		{system, func(k int) float64 { return float64(k)*workload.DayMS + workload.DayStartMS }},
		{Experiment{Name: "open-4x-stripe4", Devices: Devices{Layout: volume.Stripe, Disks: 4, StripeUnit: 16},
			Workload:  Workload{Source: Trace, Mode: tracein.OpenLoop, Copies: 4},
			Rearrange: &Rearrange{}, WindowMS: 0.1 * workload.HourMS},
			func(int) float64 { return 0 }},
	} {
		col := telemetry.NewCollector(tc.e.Name, telemetry.Options{Spans: true, Metrics: true})
		run, err := Execute(telemetry.NewContext(context.Background(), col), tc.e)
		if err != nil {
			t.Fatalf("%s: %v", tc.e.Name, err)
		}
		type span struct {
			K        string
			Internal int     `json:"int"`
			Dist     int     `json:"dist"`
			Done     float64 `json:"done"`
			Disk     int     `json:"disk"`
		}
		var requests []span
		var travel []int64  // by disk
		var nightCyls int64 // the internal operations'
		sc := bufio.NewScanner(bytes.NewReader(col.TraceJSONL()))
		for sc.Scan() {
			var sp span
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				t.Fatal(err)
			}
			if sp.K != "span" {
				continue
			}
			for len(travel) <= sp.Disk {
				travel = append(travel, 0)
			}
			travel[sp.Disk] += int64(sp.Dist)
			if sp.Internal != 0 {
				nightCyls += int64(sp.Dist)
			} else {
				requests = append(requests, sp)
			}
		}
		if nightCyls == 0 || run.installed() == 0 {
			t.Fatalf("%s: the nights moved the heads %d cylinders and installed %d blocks; want both",
				tc.e.Name, nightCyls, run.installed())
		}
		got := map[string]float64{}
		for _, m := range col.Metrics().Snapshot().Metrics {
			got[m.Name] = m.Value
		}
		for i, cyls := range travel {
			name := "driver_seek_cylinders"
			if run.Volume != nil {
				name = metrics.Name(name, metrics.Label{Key: "disk", Value: strconv.Itoa(i)})
			}
			if moved := got[name]; float64(cyls) != moved || moved == 0 {
				t.Errorf("%s: disk %d's spans add up to %d cylinders, its head moved %v", tc.e.Name, i, cyls, moved)
			}
		}
		next := 0
		for k, day := range run.Days {
			for next < len(requests) && requests[next].Done <= tc.opened(k) {
				next++
			}
			sched := day.Stats.All().SchedDist
			n := int(sched.Count())
			if next+n > len(requests) {
				t.Fatalf("%s: window %d counts %d requests, %d spans are left", tc.e.Name, k, n, len(requests)-next)
			}
			var cyls int64
			for _, sp := range requests[next : next+n] {
				cyls += int64(sp.Dist)
			}
			next += n
			if sum := math.Round(sched.MeanDist() * float64(n)); sum != float64(cyls) || n == 0 {
				t.Errorf("%s: window %d: Σ d·SchedDist(d) = %v over %d requests, the window's spans moved %d cylinders",
					tc.e.Name, k, sum, n, cyls)
			}
		}
	}
}

// TestSchedulingOrderRelations holds what §5 reads off the two seek
// distributions, on a short system file-system run of each disk with no
// rearranger. FCFSDist is the distance between consecutive arrivals'
// blocks. Under FCFS service with nothing rearranged the head serves
// the arrivals in order, so a request's seek is its FCFS distance
// unless the head did not end where FCFSDist assumes: after a block
// that crosses into the next cylinder, where it ends on that cylinder,
// or after or on a read served from the drive's buffer, which does not
// move it. So each day's SchedDist is not FCFSDist bin for bin
// (EXPERIMENTS.md): a day also counts the requests in flight at its
// edges in one distribution and not the other. SCAN reorders the same
// arrivals to shorten the seeks, so its mean SchedDist is at most the
// mean FCFSDist.
func TestSchedulingOrderRelations(t *testing.T) {
	type span struct {
		K         string
		Internal  int     `json:"int"`
		Orig      int64   `json:"orig"`
		Sec       int64   `json:"sec"`
		N         int64   `json:"n"`
		Arr       float64 `json:"arr"`
		Dist      int     `json:"dist"`
		BufferHit int     `json:"bh"`
	}
	for _, dsk := range []string{"toshiba", "fujitsu"} {
		for _, sched := range []string{"fcfs", "scan"} {
			e := Experiment{Name: dsk + "/" + sched, Devices: Devices{Disk: dsk, Sched: sched},
				Workload: Workload{Source: System}, Days: 2, WindowMS: 0.25 * workload.HourMS}
			col := telemetry.NewCollector(e.Name, telemetry.Options{Spans: true})
			run, err := Execute(telemetry.NewContext(context.Background(), col), e)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			for _, day := range run.Days {
				got, fcfs := day.Stats.All().SchedDist, day.Stats.All().FCFSDist
				if got.Count() == 0 {
					t.Fatalf("%s: day %d measured no requests", e.Name, day.Day)
				}
				if sched == "scan" && got.MeanDist() > fcfs.MeanDist() {
					t.Errorf("%s: day %d: mean SchedDist %.3f cyl under SCAN exceeds mean FCFSDist %.3f",
						e.Name, day.Day, got.MeanDist(), fcfs.MeanDist())
				}
			}
			if sched != "fcfs" {
				continue
			}
			cyl := func(sector int64) int { return run.Experiment.model.Geom.CylinderOf(sector) }
			var prev span
			var served, equal int
			sc := bufio.NewScanner(bytes.NewReader(col.TraceJSONL()))
			for sc.Scan() {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatal(err)
				}
				if sp.K != "span" {
					continue
				}
				if sp.Internal != 0 {
					t.Fatalf("%s: an internal operation with no rearranger", e.Name)
				}
				if served > 0 {
					if sp.Arr < prev.Arr {
						t.Fatalf("%s: a request that arrived at %v ms was served after one that arrived at %v ms", e.Name, sp.Arr, prev.Arr)
					}
					d := cyl(sp.Orig) - cyl(prev.Orig)
					if d < 0 {
						d = -d
					}
					crossed := cyl(prev.Sec+prev.N-1) != cyl(prev.Sec)
					if sp.Dist == d {
						equal++
					} else if !crossed && prev.BufferHit == 0 && sp.BufferHit == 0 {
						t.Errorf("%s: request %d sought %d cylinders, its FCFS distance is %d", e.Name, served, sp.Dist, d)
					}
				}
				prev = sp
				served++
			}
			t.Logf("%s: %d of %d requests sought their FCFS distance", e.Name, equal, served-1)
		}
	}
}

// TestTenantRateScaling: with QoS off nothing sheds or throttles, so
// the open-loop tenants issue what their Poisson arrivals draw — half
// the aggregate rate issues half the requests, within four standard
// deviations of a Poisson count — and the disk, offered half the load,
// queues them no longer on average.
func TestTenantRateScaling(t *testing.T) {
	run := func(rate float64) *Run {
		got, err := Execute(context.Background(), Experiment{
			Name:     "tenants-qos-off",
			Server:   &Frontend{QoSOff: true},
			Workload: Workload{Source: Tenants, Tenants: 1000, RatePerSec: rate},
			WindowMS: 0.1 * workload.HourMS, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%v req/s: %v", rate, err)
		}
		return got
	}
	full, half := run(20), run(10)
	want := float64(full.Server.Issued) / 2
	if got := float64(half.Server.Issued); want == 0 || math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("half rate issued %v requests, full rate %d; want %v ± %.0f", got, full.Server.Issued, want, 4*math.Sqrt(want))
	}
	wait := func(r *Run) float64 { return r.Days[0].Metrics(r.Curve, AllRequests).WaitMS }
	if wait(half) > wait(full) {
		t.Errorf("mean driver wait %.3f ms at half rate, above %.3f ms at full rate", wait(half), wait(full))
	}
	t.Logf("issued %d and %d, mean wait %.3f and %.3f ms", full.Server.Issued, half.Server.Issued, wait(full), wait(half))
}

// TestUnthrottledQoSIsInvisible: token buckets only ever reject, so a
// run in which QoS throttled nothing must be the run with QoS off,
// counter for counter and day for day. A million Zipf tenants at the
// default rate for a tenth of an hour all stay within their classes'
// contracts, which the test checks before it compares.
func TestUnthrottledQoSIsInvisible(t *testing.T) {
	run := func(qosOff bool) *Run {
		got, err := Execute(context.Background(), Experiment{
			Name:     "tenants-1000000",
			Server:   &Frontend{QoSOff: qosOff},
			Workload: Workload{Source: Tenants, Tenants: 1_000_000},
			WindowMS: 0.1 * workload.HourMS, Seed: 1,
		})
		if err != nil {
			t.Fatalf("QoSOff %v: %v", qosOff, err)
		}
		return got
	}
	on, off := run(false), run(true)
	if on.Server.Server.Throttled != 0 || on.Server.Issued == 0 {
		t.Fatalf("QoS on issued %d requests and throttled %d; the relation needs some and none throttled",
			on.Server.Issued, on.Server.Server.Throttled)
	}
	if !reflect.DeepEqual(on.Server, off.Server) {
		t.Errorf("server outcome with QoS on\n%+v\ndiffers from QoS off\n%+v", on.Server, off.Server)
	}
	if !reflect.DeepEqual(on.Days, off.Days) {
		t.Error("the measured window with QoS on differs from the one with QoS off")
	}
	t.Logf("%d requests issued, none throttled", on.Server.Issued)
}
