package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) of CPython 3.11 on the same data.
	for _, tc := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9.8, 4.9, 5.7, 7.7, 7.8, 8.0, 9.6, 6.7, 7.6, 9.0}, 6.45, 7.75, 9.15},
	} {
		q1, q2, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
