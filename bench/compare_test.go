package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	wall := hostMetrics[0]  // a share of the median
	setup := hostMetrics[3] // a share, or 0.05 s when that is more
	if wall.Name != "wall_s" || setup.Name != "setup_s" {
		t.Fatal("hostMetrics order changed")
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", wall, []float64{10, 10.1, 10.2}, []float64{10.4, 10.5, 10.3}, same},
		{"beyond bound", wall, []float64{10, 10.1, 10.2}, []float64{13.5, 13.6, 13.4}, worse},
		{"beyond bound the good way", wall, []float64{10, 10.1, 10.2}, []float64{6.5, 6.6, 6.4}, better},
		{"noisy base, runs interleave", wall, []float64{7, 10, 13}, []float64{9, 13.5, 14}, unresolved},
		{"noisy base, every run worse", wall, []float64{7, 10, 13}, []float64{13.5, 14, 15}, worse},
		{"noisy base, every run better", wall, []float64{7, 10, 13}, []float64{4, 5, 6}, better},
		{"small set-up inside the absolute floor", setup, []float64{0.10, 0.10, 0.10}, []float64{0.14, 0.14, 0.14}, same},
		{"small set-up beyond the floor", setup, []float64{0.10, 0.10, 0.10}, []float64{0.16, 0.16, 0.16}, worse},
	} {
		if got := verdict(tc.d, summarize(tc.d.Unit, tc.a), summarize(tc.d.Unit, tc.b)); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(wall []float64, resp float64, digest string) *result {
		return &result{Workloads: []*workloadResult{{
			Name:      "paper-system",
			SimDigest: digest,
			Host:      map[string]summary{"wall_s": summarize("s", wall)},
			Sim:       map[string]float64{"sim_resp_ms": resp, "fail_share": 0},
		}}}
	}
	base := mk([]float64{10, 10.1, 10.2}, 53.75, "aa")
	for _, tc := range []struct {
		name string
		b    *result
		ok   bool
		want string
	}{
		{"A/A", mk([]float64{10.2, 10, 10.1}, 53.75, "aa"), true, "same"},
		{"slower", mk([]float64{13, 13.1, 13.2}, 53.75, "aa"), false, "worse"},
		{"exact metric moved", mk([]float64{10, 10.1, 10.2}, 53.76, "ab"), false, "DIFFERS"},
		{"digest moved alone", mk([]float64{10, 10.1, 10.2}, 53.75, "ab"), false, "DIFFERS"},
		{"workload missing", &result{}, false, "missing from B"},
		{"workload only in B", &result{Workloads: append(mk([]float64{10, 10.1, 10.2}, 53.75, "aa").Workloads,
			&workloadResult{Name: "paper-users"})}, false, "missing from A"},
	} {
		var out bytes.Buffer
		if ok := compareResults(base, tc.b, &out); ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok = %v, want %v with %q in:\n%s", tc.name, ok, tc.ok, tc.want, out.String())
		}
	}
	worseFail := mk([]float64{10, 10.1, 10.2}, 53.75, "aa")
	worseFail.Workloads[0].Sim["fail_share"] = 0.01
	var out bytes.Buffer
	if compareResults(base, worseFail, &out) || !strings.Contains(out.String(), "LARGER") {
		t.Errorf("a larger fail_share passed:\n%s", out.String())
	}
}
