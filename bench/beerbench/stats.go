package main

import (
	"math"
	"sort"
)

// minBeyond is the sample rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so one
// outlier cannot move it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly above its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method, including
// its extrapolation for very small samples), the rule the benchmark's
// spread check is defined by. The middle cut point is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Verdicts of a bound check between a base set of runs and a new set.
const (
	verdictOK         = "ok"         // no worse than the bound allows
	verdictRegressed  = "regressed"  // worse by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// checkBound compares the runs of one (workload, metric) pair. The new
// median may be worse than the base median by at most bound, a share of the
// base median. When either side's spread exceeds the bound the difference
// cannot be resolved, unless every new run is better than every base run.
func checkBound(base, cand []float64, bound float64, higherIsBetter bool) (verdict string, delta float64) {
	mb, mc := median(base), median(cand)
	if mb != 0 {
		delta = (mc - mb) / math.Abs(mb)
	}
	worse := delta
	if higherIsBetter {
		worse = -delta
	}
	if allBetter(base, cand, higherIsBetter) {
		return verdictOK, delta
	}
	if spread(base) > bound || spread(cand) > bound {
		return verdictUnresolved, delta
	}
	if worse > bound {
		return verdictRegressed, delta
	}
	return verdictOK, delta
}

// allBetter reports whether every candidate run beats every base run.
func allBetter(base, cand []float64, higherIsBetter bool) bool {
	if len(base) == 0 || len(cand) == 0 {
		return false
	}
	b, c := sortedCopy(base), sortedCopy(cand)
	if higherIsBetter {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}
