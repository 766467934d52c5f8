package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.50, 10, true},  // rank 10, ten samples beyond
		{0.55, 11, false}, // rank 11, nine beyond
		{0.99, 20, false},
	} {
		got, ok := percentile(xs, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..20, %g) = %g, %t; want %g, %t", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// The cut points must equal Python's statistics.quantiles(xs, n=4), which
// defines the benchmark's spread check.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 9, 2, 7}, [3]float64{1.5, 5, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		if m := median(tc.xs); m != tc.want[1] {
			t.Errorf("median(%v) = %g, want %g", tc.xs, m, tc.want[1])
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestCheckBound(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		cand   []float64
		higher bool
		want   string
	}{
		{"within bound", []float64{104, 105, 103, 104, 104}, false, verdictOK},
		{"worse than bound", []float64{115, 116, 114, 115, 115}, false, verdictRegressed},
		{"higher is better, drop", []float64{85, 86, 84, 85, 85}, true, verdictRegressed},
		{"higher is better, rise", []float64{115, 116, 114, 115, 115}, true, verdictOK},
		{"spread wider than bound", []float64{60, 140, 100, 80, 120}, false, verdictUnresolved},
		{"spread wide but every run better", []float64{60, 90, 70, 80, 95}, false, verdictOK},
	} {
		if got, _ := checkBound(base, tc.cand, 0.10, tc.higher); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, delta := checkBound(base, []float64{110, 110, 110}, 0.10, false); math.Abs(delta-0.10) > 1e-12 {
		t.Errorf("delta = %g, want 0.10", delta)
	}
}
