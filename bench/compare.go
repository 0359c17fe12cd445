package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare for one metric of one workload.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// compareFiles compares result file B (the change) against A (the
// base), workload by workload and metric by metric, and returns the
// exit code: non-zero on any "worse", on a simulated-clock figure or
// digest that differs, on a larger fail_share, and on a workload that
// only one of the files has.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareResults prints the comparison and reports whether B is
// acceptable against A.
func compareResults(a, b *result, w io.Writer) bool {
	ok := true
	byName := make(map[string]*workloadResult)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB/A\tverdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		delete(byName, wa.Name)
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, d := range hostMetrics {
			sa, sb := wa.Host[d.Name], wb.Host[d.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			v := verdict(d, sa, sb)
			if v == worse {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4f [%.4f, %.4f] n=%d\t%.4f [%.4f, %.4f] n=%d\t%.3f of %.4f\t%s\n",
				wa.Name, d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				sb.Median/sa.Median, sa.Median, v)
		}
		for _, d := range simMetrics {
			va, inA := wa.Sim[d.Name]
			vb, inB := wb.Sim[d.Name]
			if !inA && !inB {
				continue
			}
			v := "equal"
			if inA != inB || va != vb {
				v, ok = "DIFFERS (a model change)", false
			}
			if d.Name == "fail_share" && vb > va {
				v = "LARGER (more operations fail)"
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%v\t%v\t\t%s\n", wa.Name, d.Name, d.Unit, va, vb, v)
		}
		v := "equal"
		if wa.SimDigest != wb.SimDigest {
			v, ok = "DIFFERS (a model change)", false
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%.16s\t%.16s\t\t%s\n", wa.Name, wa.SimDigest, wb.SimDigest, v)
	}
	// What is left was measured on one side only: the two files are not
	// measurements of the same thing.
	for _, wb := range b.Workloads {
		if byName[wb.Name] != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing from A\n", wb.Name)
			ok = false
		}
	}
	tw.Flush()
	return ok
}

// verdict compares B's reps of one host metric with A's; every host
// metric is a cost, lower is better. Within the bound either way is
// "same". When A's own reps spread wider than the bound, a difference of
// medians proves nothing: the verdict is "unresolved" unless every rep
// of one side beats every rep of the other.
func verdict(d metricDef, a, b summary) string {
	allowed := math.Max(d.Bound*a.Median, d.floor)
	if a.Q3-a.Q1 > allowed {
		minA, maxA := extremes(a.Values)
		minB, maxB := extremes(b.Values)
		switch {
		case maxB < minA:
			return better
		case minB > maxA:
			return worse
		}
		return unresolved
	}
	switch diff := b.Median - a.Median; {
	case diff > allowed:
		return worse
	case diff < -allowed:
		return better
	}
	return same
}

func extremes(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}
