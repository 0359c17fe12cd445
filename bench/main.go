// Command bench is the repository's benchmark: six workloads run through
// the built abrsim binary, one fresh process per run, measured on two
// clocks that are never mixed — the host clock (what the person running
// abrsim waits and pays for) and the simulated clock (what the modelled
// disks, volumes and server deliver) — plus a per-layer ledger for the
// whole stack. README.md has the metric tables and how to run it;
// bench/run.sh is the entry point.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/tracein"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line.
type options struct {
	workload string // "" = all six
	seed     uint64
	reps     int
	seconds  int
	trace    int // 0 plain only, 1 observed only, -1 both
	out      string
	abrsim   string
	layers   bool
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated trace and of abrsim's -seed (the four file-system workloads run at a pinned seed, see workloads.go)")
	fs.IntVar(&o.reps, "reps", 3, "plain reps per workload")
	fs.IntVar(&o.seconds, "seconds", 0, "instead of -reps, run plain reps for as long as another fits in this many seconds (one rep at least)")
	fs.IntVar(&o.trace, "trace", -1, "0: plain reps and set-up probes only, print the end-to-end metrics; 1: the observed run and layer drivers, print the per-layer metrics; default both")
	fs.StringVar(&o.out, "out", outDir+"/result.json", "write the result file here")
	fs.StringVar(&o.abrsim, "abrsim", "", "measure this prebuilt abrsim binary instead of building ./cmd/abrsim")
	fs.BoolVar(&o.layers, "layers", false, "run only the in-process layer drivers")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.trace < -1 || o.trace > 1 || o.reps < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b := &bench{o: o, tr: newTracer(), stdout: stdout, stderr: stderr}
	err := b.run()
	if werr := b.tr.write(outDir + "/trace.json"); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

type bench struct {
	o      options
	tr     *tracer
	stdout io.Writer
	stderr io.Writer
	abrsim string // path of the binary under test
	// traceFile and traceOne are the generated trace and its first
	// record alone, for the trace-replay workload.
	traceFile, traceOne string
}

// result is the file a run writes and -compare reads.
type result struct {
	Schema       int                `json:"schema"`
	Env          environment        `json:"env"`
	Workloads    []*workloadResult  `json:"workloads"`
	LayerDrivers map[string]float64 `json:"layer_drivers,omitempty"`
}

// workloadResult is one workload's figures.
type workloadResult struct {
	Name string `json:"name"`
	Loop string `json:"loop"`
	// Commands are the exact child command lines of one rep.
	Commands [][]string `json:"commands"`
	// Errors names every correctness check that failed; the run is
	// correct when there are none.
	Errors    []string `json:"errors,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// SimDigest is the SHA-256 of the workload's stdout: two commits
	// that print the same simulated results have the same digest.
	SimDigest string `json:"sim_digest"`
	// Host holds the host-clock metrics over the plain reps; Sim the
	// simulated-clock end-to-end metrics, exact for the seed; Layers
	// the per-layer ledger from the observed run.
	Host   map[string]summary `json:"host,omitempty"`
	Sim    map[string]float64 `json:"sim"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (b *bench) run() error {
	env, err := readEnvironment(b.o)
	if err != nil {
		return err
	}
	if env.LoadHigh {
		fmt.Fprintf(b.stderr, "bench: warning: load average %.2f is above half of %d CPUs; host timings will be noisy\n", env.LoadAvg1, env.NProc)
	}
	res := &result{Schema: 1, Env: env}
	if b.o.layers {
		if res.LayerDrivers, err = runLayerDrivers(b.tr, 0); err != nil {
			return err
		}
		printValues(b.stdout, "layer drivers", res.LayerDrivers)
		return writeJSON(b.o.out, res)
	}

	selected := workloads
	if b.o.workload != "" {
		w, err := findWorkload(b.o.workload)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	var buildTook time.Duration
	if b.abrsim = b.o.abrsim; b.abrsim == "" {
		buildStart := time.Now()
		if b.abrsim, buildTook, err = buildAbrsim(); err != nil {
			return err
		}
		b.tr.add(0, "build", buildStart, buildStart.Add(buildTook), nil)
	}
	if err := b.writeTraces(); err != nil {
		return err
	}
	if b.o.trace != 0 {
		if res.LayerDrivers, err = runLayerDrivers(b.tr, 0); err != nil {
			return err
		}
	}
	for i := range selected {
		wr, err := b.measure(&selected[i])
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i].name, err)
		}
		if wr.Layers != nil {
			wr.Layers["harness.build_s"] = buildTook.Seconds()
		}
		res.Workloads = append(res.Workloads, wr)
		printWorkload(b.stdout, wr)
	}
	if res.LayerDrivers != nil {
		printValues(b.stdout, "layer drivers", res.LayerDrivers)
	}
	if err := writeJSON(b.o.out, res); err != nil {
		return err
	}
	var failed []string
	for _, wr := range res.Workloads {
		for _, e := range wr.Errors {
			failed = append(failed, wr.Name+": "+e)
		}
	}
	if b.o.trace >= 0 && len(res.Workloads) == 1 {
		printContractLine(b.stdout, b.o.trace, res)
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// writeTraces generates the trace-replay workload's input from the seed.
func (b *bench) writeTraces() error {
	b.traceFile = fmt.Sprintf("%s/trace-%d.csv", outDir, b.o.seed)
	b.traceOne = outDir + "/trace-one.csv"
	var buf bytes.Buffer
	if err := writeTrace(&buf, int64(b.o.seed), traceRecords); err != nil {
		return err
	}
	if err := os.WriteFile(b.traceFile, buf.Bytes(), 0o644); err != nil {
		return err
	}
	first, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	return os.WriteFile(b.traceOne, append(first, '\n'), 0o644)
}

// args completes one of a workload's argument lists into the command
// line abrsim is run with.
func (b *bench) args(w *workload, list []string) []string {
	seed := b.o.seed
	if w.pinSeed {
		seed = pinnedSeed
	}
	out := make([]string, 0, len(list)+4)
	for _, a := range list {
		switch a {
		case "$T":
			a = b.traceFile
		case "$T1":
			a = b.traceOne
		}
		out = append(out, a)
	}
	return append(out, "-jobs", "1", "-seed", strconv.FormatUint(seed, 10))
}

// rep is one run of a workload: every child process of it, summed.
type rep struct {
	wall, cpu time.Duration
	rssMB     float64
	stdout    []byte
	cpuNS     map[string]int64 // CPU time by layer, observed run only
	*report
}

// runRep runs the workload's children once. A plain rep passes no
// observability flag. The observed run adds -metrics and -pprof, and
// profiles each child while it runs.
func (b *bench) runRep(w *workload, parent int, name string, observed bool) (*rep, error) {
	id := b.tr.open(parent, name)
	defer b.tr.close(id)
	r := &rep{cpuNS: make(map[string]int64), report: &report{
		windowS: w.windowS, sim: make(map[string]float64), layer: make(map[string]float64)}}
	for i, list := range w.runs {
		args := b.args(w, list)
		snapFile := fmt.Sprintf("%s/metrics-%s-%d.json", outDir, w.name, i)
		if observed {
			args = append(args, "-metrics", snapFile)
		}
		c, err := runChild(b.abrsim, args, observed)
		if err != nil {
			return nil, err
		}
		jobs, err := parseJobs(c.stderr)
		if err != nil {
			return nil, err
		}
		cid := b.tr.add(id, "abrsim", c.start, c.start.Add(c.wall), map[string]any{
			"args": strings.Join(c.args, " "), "cpu_s": c.cpu.Seconds(), "rss_mb": c.rssMB})
		// abrsim prints each job's wall, not when it started; with
		// -jobs 1 they ran one after another, so lay them end to end.
		at := c.start
		for _, j := range jobs {
			b.tr.add(cid, "job:"+j.name, at, at.Add(j.wall), map[string]any{"events": j.events})
			at = at.Add(j.wall)
		}
		r.wall += c.wall
		r.cpu += c.cpu
		r.rssMB = max(r.rssMB, c.rssMB)
		r.stdout = append(r.stdout, c.stdout...)
		r.jobs = append(r.jobs, jobs...)
		if observed {
			for _, p := range c.profiles {
				byLayer, err := cpuByLayer(p)
				if err != nil {
					return nil, err
				}
				for l, ns := range byLayer {
					r.cpuNS[l] += ns
				}
			}
			snap, err := readSnapshotFile(snapFile)
			if err != nil {
				return nil, err
			}
			r.snap = append(r.snap, snap)
		}
	}
	var err error
	if r.tables, err = parseReports(r.stdout); err != nil {
		return nil, err
	}
	if err := w.read(r.report); err != nil {
		return nil, err
	}
	return r, nil
}

func readSnapshotFile(path string) ([]metrics.JobSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := metrics.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// setupOnce is one set-up probe: the workload's command with the
// measured window cut to nothing. For trace-replay the part of set-up
// that grows with the trace — reading and scaling it — is timed in
// process and added, because the one-record probe cannot show it.
func (b *bench) setupOnce(w *workload, parent int) (float64, error) {
	id := b.tr.open(parent, "setup-probe")
	defer b.tr.close(id)
	start := time.Now()
	if w.name == "trace-replay" {
		recs, _, err := tracein.ReadFile(b.traceFile, tracein.FormatUnknown, tracein.Options{})
		if err != nil {
			return 0, err
		}
		if scaled := traceScale.Apply(recs); len(scaled) != traceScale.Copies*traceRecords {
			return 0, fmt.Errorf("scaling %d records by %d gave %d", len(recs), traceScale.Copies, len(scaled))
		}
	}
	if _, err := runChild(b.abrsim, b.args(w, w.probe), false); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// measure runs one workload: set-up probes and plain reps for the host
// clock, then one observed run for the simulated clock and the layers.
func (b *bench) measure(w *workload) (*workloadResult, error) {
	id := b.tr.open(0, "workload:"+w.name)
	defer b.tr.close(id)
	res := &workloadResult{Name: w.name, Loop: w.loop, Host: make(map[string]summary)}
	for _, list := range w.runs {
		res.Commands = append(res.Commands, append([]string{"abrsim"}, b.args(w, list)...))
	}
	fail := func(format string, args ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
	}

	if b.o.trace != 1 {
		// Several probes, because a probe is a fraction of a second and
		// process start-up jitters: at least three, and more while they
		// stay cheap.
		var setup []float64
		var spent float64
		for len(setup) < 3 || (len(setup) < 9 && spent < 1.5) {
			s, err := b.setupOnce(w, id)
			if err != nil {
				return nil, err
			}
			setup = append(setup, s)
			spent += s
		}
		res.Host["setup_s"] = summarize("s", setup)
	}

	// -reps plain reps, or with -seconds as many as fit: another rep is
	// started while the time spent so far plus one more rep of the last
	// one's length stays inside the budget.
	budget := time.Duration(b.o.seconds) * time.Second
	var plain []*rep
	var spent time.Duration
	for i := 0; ; i++ {
		more := i < b.o.reps
		if budget > 0 {
			more = i == 0 || spent+plain[i-1].wall <= budget
		}
		if !more {
			break
		}
		r, err := b.runRep(w, id, fmt.Sprintf("run[%d]", i), false)
		if err != nil {
			return nil, err
		}
		if i > 0 && !bytes.Equal(r.stdout, plain[0].stdout) {
			fail("stdout of rep %d differs from rep 0", i)
		}
		plain = append(plain, r)
		spent += r.wall
	}
	var wall, cpu, rss []float64
	for _, r := range plain {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
	}
	res.Host["wall_s"] = summarize("s", wall)
	res.Host["cpu_s"] = summarize("s", cpu)
	res.Host["peak_rss_mb"] = summarize("MB", rss)
	last := plain[0]
	res.SimDigest = fmt.Sprintf("%x", sha256.Sum256(last.stdout))

	if b.o.trace != 0 {
		obs, err := b.runRep(w, id, "observed-run", true)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(obs.stdout, plain[0].stdout) {
			fail("stdout of the observed run differs from the plain reps")
		}
		last = obs
		readSnapshot(obs.report)
		res.Layers = obs.layer
		var total int64
		for _, ns := range obs.cpuNS {
			total += ns
		}
		for _, l := range layers {
			res.Layers["cpu_share."+l] = share(float64(obs.cpuNS[l]), float64(total))
		}
		plainWall := res.Host["wall_s"].Median
		res.Layers["trace_overhead_pct"] = 100 * (obs.wall.Seconds()/plainWall - 1)
		res.Layers["sim.ns_per_event"] = share(plainWall*1e9, res.Layers["sim.events"])
		if w.name == "volume-scale" {
			if res.Layers["runner.jobs2_speedup"], err = b.jobs2Speedup(w, id, plain[0]); err != nil {
				return nil, err
			}
		}
	}
	for _, j := range last.jobs {
		if j.failed {
			fail("job %s FAILED", j.name)
		}
	}
	res.Attempted, res.Failed, res.Sim = last.attempted, last.failed, last.sim
	if res.Failed > 0 {
		fail("%d of %d simulated operations ended in an error", res.Failed, res.Attempted)
	}
	return res, nil
}

// jobs2Speedup runs the workload once more on two runner workers: how
// much of the second core the job fan-out turns into wall time. The
// report must not change with the worker count.
func (b *bench) jobs2Speedup(w *workload, parent int, plain *rep) (float64, error) {
	args := b.args(w, w.runs[0])
	for i, a := range args {
		if a == "-jobs" {
			args[i+1] = "2"
		}
	}
	id := b.tr.open(parent, "jobs2-run")
	defer b.tr.close(id)
	c, err := runChild(b.abrsim, args, false)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(c.stdout, plain.stdout) {
		return 0, errors.New("stdout at -jobs 2 differs from -jobs 1")
	}
	return plain.wall.Seconds() / c.wall.Seconds(), nil
}

// environment is what a result was measured on and with.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1min"`
	// LoadHigh flags a start on a busy machine (load above half the
	// CPUs): the run goes on, but its host timings deserve suspicion.
	LoadHigh bool `json:"load_high"`
	// GOGC and GODEBUG change what is measured, so a run refuses to
	// start with either set; they are recorded to show they were not.
	GOGC      string `json:"gogc"`
	GODEBUG   string `json:"godebug"`
	GitCommit string `json:"git_commit"`
	Seed      uint64 `json:"seed"`
	Reps      int    `json:"reps"`
}

func readEnvironment(o options) (environment, error) {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown",
		GOGC: os.Getenv("GOGC"), GODEBUG: os.Getenv("GODEBUG"),
		Seed: o.seed, Reps: o.reps,
	}
	if env.GOGC != "" || env.GODEBUG != "" {
		return env, fmt.Errorf("GOGC=%q GODEBUG=%q: unset both, they change what is measured", env.GOGC, env.GODEBUG)
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	env.LoadHigh = env.LoadAvg1 > 0.5*float64(env.NProc)
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name with its
// unit: host metrics as median [q1, q3] over n reps, the rest as read.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s (%s)\n", r.Name, r.Loop)
	for _, cmd := range r.Commands {
		fmt.Fprintf(w, "   %s\n", strings.Join(cmd, " "))
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, sim_digest %.16s\n", r.Attempted, r.Failed, r.SimDigest)
	for _, d := range hostMetrics {
		if s, ok := r.Host[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %12.4f %-10s [%.4f, %.4f] n=%d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
		}
	}
	for _, d := range simMetrics {
		if v, ok := r.Sim[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %12.4f %s\n", d.Name, v, d.Unit)
		} else if d.Name == "paper_err_pct" {
			fmt.Fprintf(w, "  %-28s %12s (no reference results for this workload)\n", d.Name, "unvalidated")
		}
	}
	if r.Layers != nil {
		for _, d := range perLayerMetrics() {
			if v, ok := r.Layers[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %12.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

func printValues(w io.Writer, title string, values map[string]float64) {
	fmt.Fprintf(w, "== %s\n", title)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := "allocs/op"
		if strings.HasSuffix(name, "_ns") {
			unit = "ns/op"
		}
		fmt.Fprintf(w, "  %-36s %14.2f %s\n", name, values[name], unit)
	}
}

// printContractLine prints, as the last line of stdout, the one JSON
// object the benchmark contract asks for: with -trace 0 every
// end-to-end metric BENCHMARK.json bounds, with -trace 1 every per-layer
// metric (0 where a layer is not on the workload's path).
func printContractLine(w io.Writer, trace int, res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := res.Workloads[0]
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(wr.Errors) == 0, wr.Attempted, wr.Failed, make(map[string]value)}
	if trace == 0 {
		for _, d := range hostMetrics {
			out.Metrics[d.Name] = value{wr.Host[d.Name].Median, d.Unit}
		}
	} else {
		for _, d := range perLayerMetrics() {
			v, ok := wr.Layers[d.Name]
			if !ok {
				if v, ok = wr.Sim[d.Name]; !ok {
					v = res.LayerDrivers[d.Name]
				}
			}
			out.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
