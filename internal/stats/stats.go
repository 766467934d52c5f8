// Package stats provides the statistical helpers the reproduction needs:
// five-number summaries and bootstrap confidence intervals for the figures
// (paper §6 reports medians with min/max whiskers), and deterministic
// hash-based random variates for the DRAM retention model (each cell's
// retention time must be a repeatable function of its address, mirroring
// how real cells have fixed-but-random retention behavior, paper §3.2).
//
// Entry points: Summarize/Bootstrap for the figure pipelines; SplitMix64/
// HashN + Uniform01/NormalInv for address-keyed variates (internal/dram
// draws retention times through them). The hash-based variates carry the
// repository-wide determinism invariant: same address + seed, same value,
// on every platform.
package stats

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		return sorted[0]
	}
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a five-number summary plus the mean, the shape Figure 4's
// boxplots report (min, median, max, interquartile range).
type Summary struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		N:      len(sorted),
	}
}

// Interval is a bootstrap point estimate with a confidence interval, as used
// for Figure 1's error bars (paper: medians and 95% confidence intervals via
// statistical bootstrapping over 1000 samples).
type Interval struct {
	Lo, Point, Hi float64
}

// Bootstrap estimates stat's sampling distribution by resampling xs with
// replacement resamples times, returning the (1-conf)/2 and (1+conf)/2
// quantiles around the point estimate stat(xs). conf is e.g. 0.95.
func Bootstrap(xs []float64, stat func([]float64) float64, resamples int, conf float64, rng *rand.Rand) Interval {
	point := stat(xs)
	if len(xs) == 0 || resamples <= 0 {
		return Interval{Lo: point, Point: point, Hi: point}
	}
	res := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.IntN(len(xs))]
		}
		res[r] = stat(buf)
	}
	sort.Float64s(res)
	alpha := (1 - conf) / 2
	return Interval{
		Lo:    quantileSorted(res, alpha),
		Point: point,
		Hi:    quantileSorted(res, 1-alpha),
	}
}

// SplitMix64 is the splitmix64 mixing function: a bijective avalanche hash
// used to derive independent per-cell random values from addresses.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashN folds a sequence of integers into a single well-mixed 64-bit hash.
func HashN(parts ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = SplitMix64(h ^ p)
	}
	return h
}

// Uniform01 maps a 64-bit hash to a float64 in the open interval (0, 1).
func Uniform01(h uint64) float64 {
	// Use the top 52 bits, offset by one half, so both endpoints are
	// excluded and every intermediate value is exactly representable.
	return (float64(h>>12) + 0.5) / float64(1<<52)
}

// NormalInv returns the standard normal quantile function Phi^-1(p) via the
// inverse error function.
func NormalInv(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// LogNormal returns exp(mu + sigma*Phi^-1(u)) for u in (0,1): a deterministic
// log-normal variate driven by a hash-derived uniform.
func LogNormal(u, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*NormalInv(u))
}

// LogNormalCDF returns P(X <= x) for X ~ LogNormal(mu, sigma).
func LogNormalCDF(x, mu, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * (1 + math.Erf((math.Log(x)-mu)/(sigma*math.Sqrt2)))
}
