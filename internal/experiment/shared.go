package experiment

// sharedConfigs is the shared-disk extension's one row: the
// configuration Section 4.1.1 describes but the paper never measures,
// both file systems as two partitions of a single disk, sharing one
// reserved region. Block rearrangement is per physical device, so the
// single block table holds hot blocks from both file systems at once;
// the hot list naturally interleaves the system file system's metadata
// blocks with the users' working set. Otherwise it is the paper's Toshiba
// setup — its window, caches, reserved region and alternating on-days.
func sharedConfigs(o Options) []Experiment {
	e := o.paper("shared", "toshiba", SystemAndUsers, 4)
	// This stack has always run the driver's own SCAN, so its telemetry
	// has no scheduler column and its snapshots no scheduler metrics.
	e.Devices.Sched = ""
	return []Experiment{e}
}

// SharedReport renders the extension experiment's summary.
func SharedReport(run *Run) *Report {
	rep := &Report{
		ID:      "shared",
		Title:   "Extension: both file systems sharing one disk and one reserved region (Toshiba)",
		Columns: []string{"Metric", "Off days", "On days"},
	}
	off := Summarize(run.OffDays(), run.Curve, AllRequests)
	on := Summarize(run.OnDays(), run.Curve, AllRequests)
	rep.AddRow("Mean seek time (ms)", f2(off.Seek.Avg()), f2(on.Seek.Avg()))
	rep.AddRow("Mean service time (ms)", f2(off.Service.Avg()), f2(on.Service.Avg()))
	rep.AddRow("Mean waiting time (ms)", f2(off.Wait.Avg()), f2(on.Wait.Avg()))
	rep.AddNote("the paper never measures this configuration, but Section 4.1.1 supports it: rearrangement is per physical device and the block table mixes blocks from both file systems")
	return rep
}
