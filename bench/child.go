package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// buildDir holds everything building leaves behind; outDir holds what a
// run writes (the generated trace, result and span files). Both are
// relative to the repository root, where the benchmark runs.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// buildAbrsim builds the program under test from source, exactly as a
// user would, and returns its path and how long the build took.
func buildAbrsim() (string, time.Duration, error) {
	if _, err := os.Stat("cmd/abrsim"); err != nil {
		return "", 0, fmt.Errorf("not at the root of the repository: %w", err)
	}
	const bin = buildDir + "/abrsim"
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/abrsim")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/abrsim: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// childRun is one finished abrsim process.
type childRun struct {
	args     []string
	start    time.Time
	wall     time.Duration
	cpu      time.Duration // user + system
	rssMB    float64       // peak resident set, see peakRSS
	stdout   []byte
	stderr   []byte
	profiles [][]byte // gzipped pprof CPU profiles, when asked for
}

// runChild runs the abrsim binary with args as a fresh process and waits
// for it. A non-zero exit is an error that carries the child's stderr.
//
// With profile set the child also serves net/http/pprof on a free
// loopback port, and CPU profiles are fetched from it for as long as it
// runs — the only way to profile the unmodified binary.
func runChild(abrsim string, args []string, profile bool) (*childRun, error) {
	var addr string
	if profile {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("finding a free port for -pprof: %w", err)
		}
		addr = l.Addr().String()
		l.Close()
		args = append(append([]string(nil), args...), "-pprof", addr)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(abrsim, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	r := &childRun{args: args, start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rss := make(chan float64)
	exited := make(chan struct{})
	go func() { rss <- peakRSS(cmd.Process.Pid, exited) }()
	var perr error
	if profile {
		r.profiles, perr = fetchProfiles(addr)
	}
	err := cmd.Wait()
	r.wall = time.Since(r.start)
	close(exited)
	r.rssMB = <-rss
	r.stdout, r.stderr = stdout.Bytes(), stderr.Bytes()
	if err != nil {
		return nil, fmt.Errorf("abrsim %v: %v\n%s", args, err, r.stderr)
	}
	if perr != nil {
		return nil, fmt.Errorf("abrsim %v: CPU profile: %w", args, perr)
	}
	r.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && r.rssMB == 0 {
		// A child gone before the first poll: the overestimate is all
		// there is. No measured run is that short.
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// peakRSS polls the child's resident-set high-water mark (VmHWM in
// /proc/PID/status) until exited is closed and returns the last reading
// in megabytes. ru_maxrss from wait4 would be simpler and is wrong here:
// the child is vforked off this process, and at exec the kernel folds the
// old address space's peak — this process's own, snapshots and layer
// drivers included — into the child's figure, so every child smaller
// than the benchmark reads the same.
func peakRSS(pid int, exited <-chan struct{}) float64 {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var mb float64
	for {
		if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
			if _, rest, ok := bytes.Cut(data, []byte("VmHWM:")); ok {
				var kb float64
				if _, err := fmt.Sscan(string(rest), &kb); err == nil {
					mb = kb / 1024
				}
			}
		}
		select {
		case <-exited:
			return mb
		case <-tick.C:
		}
	}
}

// fetchProfiles waits for the child's pprof server to come up, then
// asks it for one-second CPU profiles back to back until it goes away.
// Slices, because how long the child will run is not known: a single
// request for most of the expected wall fails whole when the child
// finishes early, where slices lose only the last one.
func fetchProfiles(addr string) ([][]byte, error) {
	url := "http://" + addr + "/debug/pprof/profile?seconds=1"
	client := &http.Client{Timeout: 30 * time.Second}
	var profiles [][]byte
	for deadline := time.Now().Add(5 * time.Second); ; {
		body, err := get(client, url)
		switch {
		case err == nil:
			profiles = append(profiles, body)
		case len(profiles) > 0:
			return profiles, nil // the child has exited
		case time.Now().After(deadline):
			return nil, err
		default:
			time.Sleep(10 * time.Millisecond) // not listening yet
		}
	}
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
