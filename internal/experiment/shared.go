package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/workload"
)

// SharedResult is the outcome of the shared-disk extension experiment.
type SharedResult struct {
	Run *Run
	// SystemErrors and UsersErrors count failed operations per workload.
	SystemErrors, UsersErrors int64
}

// RunShared executes the configuration Section 4.1.1 describes but the
// paper never measures: both file systems as two partitions of a single
// disk, sharing one reserved region. Block rearrangement is per physical
// device, so the single block table holds hot blocks from both file
// systems at once; the hot list naturally interleaves the system file
// system's metadata blocks with the users' working set.
//
// Both workloads drive one rig and one engine, so the run is a single
// job on the parallel runner; the context cancels it.
func RunShared(ctx context.Context, o Options) (*SharedResult, error) {
	// The paper's Toshiba setup — its window, caches, reserved region
	// and alternating on-days — with two file systems on the one disk.
	s, model, _ := Setup{Days: o.days(4), WindowMS: o.WindowMS, Seed: o.Seed}.withDefaults()
	// Split the virtual disk ~60/40 between the two file systems.
	totalBlocks := (model.Geom.TotalSectors() - int64(s.ReservedCyls)*int64(model.Geom.SectorsPerCyl())) / 16
	sysBlocks := totalBlocks * 6 / 10
	usrBlocks := totalBlocks - sysBlocks - 16
	st, err := newStack(ctx, stackSpec{
		rig: &rig.Options{
			Disk:            model,
			ReservedCyls:    s.ReservedCyls,
			PartitionBlocks: []int64{sysBlocks, usrBlocks},
			Fault:           o.Fault,
		},
		mounts:    []mount{{"sys", s.fsParams(false)}, {"usr", s.fsParams(true)}},
		rearrange: &core.Config{MaxBlocks: s.Blocks},
	})
	if err != nil {
		return nil, err
	}
	defer st.finish()
	drv := st.rig.Driver

	sysW := workload.NewSystem(st.eng, st.fs[0], workload.SystemConfig{
		WindowMS: s.WindowMS, Seed: s.Seed,
	})
	usrW := workload.NewUsers(st.eng, st.fs[1], workload.UsersConfig{
		WindowMS: s.WindowMS, Seed: s.Seed + 1,
	})
	// The time series has always covered populate; the distributions,
	// as everywhere, only measured traffic. The two workloads share one
	// workload_job_ms distribution.
	st.startSampler()
	if err := st.await("populate system", workload.DayStartMS/2, sysW.Populate); err != nil {
		return nil, err
	}
	if err := st.await("populate users", workload.DayStartMS, usrW.Populate); err != nil {
		return nil, err
	}
	st.bindMetrics(sysW, usrW)

	s.FSName = "shared"
	run := &Run{Setup: s, Curve: model.Seek}
	run.Installed, err = st.runDays(s.Days, s.WindowMS, s.OnPattern,
		func(day int, done func(error)) {
			// Both workloads run concurrently over the same window.
			remaining := 2
			var firstErr error
			bothDone := func(err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if remaining--; remaining == 0 {
					done(firstErr)
				}
			}
			sysW.RunDay(day, bothDone)
			usrW.RunDay(day, bothDone)
		},
		func(int) { drv.ReadStats() },
		func(day int) {
			run.Days = append(run.Days, DayResult{
				Day: day, On: s.OnPattern(day) && day > 0, Stats: drv.ReadStats(),
			})
		})
	if err != nil {
		return nil, err
	}
	return &SharedResult{
		Run:          run,
		SystemErrors: sysW.Errors(),
		UsersErrors:  usrW.Errors(),
	}, nil
}

// SharedReport renders the extension experiment's summary.
func SharedReport(res *SharedResult) *Report {
	rep := &Report{
		ID:      "shared",
		Title:   "Extension: both file systems sharing one disk and one reserved region (Toshiba)",
		Columns: []string{"Metric", "Off days", "On days"},
	}
	run := res.Run
	off := Summarize(run.OffDays(), run.Curve, AllRequests)
	on := Summarize(run.OnDays(), run.Curve, AllRequests)
	rep.AddRow("Mean seek time (ms)", f2(off.Seek.Avg()), f2(on.Seek.Avg()))
	rep.AddRow("Mean service time (ms)", f2(off.Service.Avg()), f2(on.Service.Avg()))
	rep.AddRow("Mean waiting time (ms)", f2(off.Wait.Avg()), f2(on.Wait.Avg()))
	rep.AddNote("the paper never measures this configuration, but Section 4.1.1 supports it: rearrangement is per physical device and the block table mixes blocks from both file systems")
	return rep
}

// registerShared registers the shared-disk extension with the
// experiment registry.
func registerShared() {
	Register(Spec{
		ID: "shared", Description: "extension: both file systems sharing one disk",
		Needs: []Need{NeedShared},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{SharedReport(rs.Shared)}
		},
	})
}
