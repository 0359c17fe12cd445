package main

import "sort"

// summary is a host-clock metric over the plain reps of one workload:
// the median is what gets compared, the quartiles say how far apart the
// reps were, and n says how many there were.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so spreads computed here match the ones the benchmark
// contract is checked with. One value is its own three quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}
