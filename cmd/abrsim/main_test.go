package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

// TestCLIRejects drives cli with command lines that must be refused
// before any simulation starts: the exit code, and what stderr has to
// say so the user can fix the line.
func TestCLIRejects(t *testing.T) {
	var ids []string
	for _, s := range experiment.Specs() {
		ids = append(ids, s.ID)
	}
	for _, tc := range []struct {
		args []string
		code int
		want []string // substrings of stderr
	}{
		{[]string{"-shard", "4"}, 2, []string{"flag provided but not defined: -shard"}},
		{[]string{"-days", "-1"}, 2, []string{"-days", "-1", "0 or more"}},
		{[]string{"-hours", "-1"}, 2, []string{"-hours", "-1", "0 or more"}},
		{[]string{"-hours", "NaN"}, 2, []string{"-hours", "NaN", "0 or more"}},
		{[]string{"-jobs", "-3"}, 2, []string{"-jobs", "-3", "0 or more"}},
		{[]string{"-tenants", "-1"}, 2, []string{"-tenants", "-1", "0 or more"}},
		{[]string{"-trace-scale", "-1"}, 2, []string{"-trace-scale", "-1", "0 or more"}},
		{[]string{"-spare", "-1"}, 2, []string{"-spare", "-1", "0 or more"}},
		// These ran the default experiment and exited 0 (-rebuild-rate: 1,
		// from inside a job) before each flag declared its range.
		{[]string{"-net-lat", "-1"}, 2, []string{"-net-lat", "-1", "0 or more"}},
		{[]string{"-sample", "-1s"}, 2, []string{"-sample", "-1s", "0 or more"}},
		{[]string{"-scrub-interval", "-1h"}, 2, []string{"-scrub-interval", "-1h", "0 or more"}},
		{[]string{"-timeout", "-1s"}, 2, []string{"-timeout", "-1s", "0 or more"}},
		{[]string{"-trace-shift", "-5"}, 2, []string{"-trace-shift", "-5", "0 or more"}},
		{[]string{"-crash-after", "-1"}, 2, []string{"-crash-after", "-1", "0 or more"}},
		{[]string{"-rebuild-rate", "-5"}, 2, []string{"-rebuild-rate", "-5", "0 or more"}},
		{[]string{"-qos", "maybe"}, 2, []string{"-qos", `"maybe"`, "on or off"}},
		{[]string{"-layout", "raid7"}, 2, []string{"-layout", `"raid7"`, "raid5 or raid6"}},
		{[]string{"-replay-mode", "sideways"}, 2, []string{"-replay-mode", `"sideways"`, "open or closed"}},
		{[]string{"-metrics-format", "xml"}, 2, []string{"-metrics-format", `"xml"`, "json or prom"}},
		{[]string{"-fault-plan", "twrite=lots"}, 2, []string{"fault:", "lots"}},
		{[]string{"-exp", "no-such-table"}, 1, append([]string{"no-such-table"}, ids...)},
	} {
		var stdout, stderr bytes.Buffer
		code := cli(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%v: stderr lacks %q:\n%s", tc.args, w, stderr.String())
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", tc.args, stdout.String())
		}
	}
}

// TestCLIHelp checks that -h exits 0 and prints, byte for byte, what
// the hand-written flag definitions printed before the flags became a
// table (testdata/help.txt is that binary's output): deriving the help
// must not reorder, reword or drop a line of it.
func TestCLIHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	want, err := os.ReadFile("testdata/help.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); got != string(want) {
		t.Errorf("-h differs from testdata/help.txt; got:\n%s", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h wrote to stdout:\n%s", stdout.String())
	}
}

// TestPprofOutlivesShortRun: a run shorter than the one-second CPU
// profile asked of it must still deliver that profile (bench/ fetches
// one-second slices and fails the observed run when it gets none).
func TestPprofOutlivesShortRun(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	addr := l.Addr().String()
	l.Close()
	type result struct {
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		url := "http://" + addr + "/debug/pprof/profile?seconds=1"
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get(url)
			if err != nil {
				if time.Now().After(deadline) {
					got <- result{nil, err}
					return
				}
				continue // not listening yet
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: %s", url, resp.Status)
			}
			got <- result{body, err}
			return
		}
	}()
	start := time.Now()
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "tenant-scale", "-tenants", "100", "-hours", "0.02", "-pprof", addr}
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	elapsed := time.Since(start)
	// In a test the process outlives cli, so a profile always arrives in
	// the end; what shows that cli waited for it is that it is (all but)
	// there when cli returns.
	var r result
	select {
	case r = <-got:
	case <-time.After(300 * time.Millisecond):
		t.Fatalf("cli returned after %v with the profile still being taken", elapsed)
	}
	if r.err != nil || len(r.body) == 0 {
		t.Fatalf("the profile was not delivered (%d bytes, err %v); the run took %v", len(r.body), r.err, elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("the run took %v: it should wait for one profile, not more", elapsed)
	}
}

// TestPprofBindError: an address that cannot be bound is refused
// before anything is simulated.
func TestPprofBindError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener:", err)
	}
	defer l.Close()
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "tenant-scale", "-tenants", "100", "-hours", "0.02", "-pprof", l.Addr().String()}
	if code := cli(args, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "abrsim: pprof:") {
		t.Errorf("stderr does not report the bind error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("simulated despite the bind error:\n%s", stdout.String())
	}
}
