package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("Median = %v", got)
	}
	if got := quantile([]float64{5}, 0.5); got != 5 {
		t.Fatalf("Median single = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile(nil, 0.5) should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10, 20, 30}
	cases := map[float64]float64{0: 0, 0.5: 15, 1: 30, 0.25: 7.5}
	for q, want := range cases {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.Min != 1 || s.Max != 100 || s.Median != 3 || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %v, %v", s.Q1, s.Q3)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Median) {
		t.Fatal("empty summary should be NaN")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCoversTrueMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	covered := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = 3.0 + rng.NormFloat64()
		}
		iv := Bootstrap(xs, Mean, 300, 0.95, rng)
		if iv.Lo > iv.Point || iv.Point > iv.Hi {
			t.Fatalf("interval not ordered: %+v", iv)
		}
		if iv.Lo <= 3.0 && 3.0 <= iv.Hi {
			covered++
		}
	}
	// 95% nominal coverage; allow generous slack for 100 trials.
	if covered < 85 {
		t.Fatalf("bootstrap CI covered the true mean only %d/%d times", covered, trials)
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	iv := Bootstrap(nil, Mean, 100, 0.95, rng)
	if iv.Lo != iv.Hi {
		t.Fatal("empty bootstrap should collapse to a point")
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := SplitMix64(12345)
	flipped := SplitMix64(12345 ^ 1)
	diff := base ^ flipped
	ones := 0
	for ; diff != 0; diff &= diff - 1 {
		ones++
	}
	if ones < 16 || ones > 48 {
		t.Fatalf("avalanche too weak: %d differing bits", ones)
	}
}

func TestHashNDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for b := uint64(0); b < 4; b++ {
		for r := uint64(0); r < 64; r++ {
			for c := uint64(0); c < 64; c++ {
				h := HashN(7, b, r, c)
				if seen[h] {
					t.Fatalf("hash collision at (%d,%d,%d)", b, r, c)
				}
				seen[h] = true
			}
		}
	}
}

func TestUniform01Range(t *testing.T) {
	for _, h := range []uint64{0, 1, ^uint64(0), 0x8000000000000000} {
		u := Uniform01(h)
		if u <= 0 || u >= 1 {
			t.Fatalf("Uniform01(%#x) = %v out of (0,1)", h, u)
		}
	}
}

func TestNormalInvRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.999} {
		z := NormalInv(p)
		// CDF via erf to invert.
		back := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("NormalInv(%v) round trip = %v", p, back)
		}
	}
	if NormalInv(0.5) != 0 {
		t.Error("NormalInv(0.5) should be 0")
	}
}

func TestLogNormalQuantiles(t *testing.T) {
	mu, sigma := 2.0, 0.5
	med := LogNormal(0.5, mu, sigma)
	if math.Abs(med-math.Exp(mu)) > 1e-9 {
		t.Fatalf("log-normal median = %v, want %v", med, math.Exp(mu))
	}
	// CDF inverts the quantile transform.
	for _, u := range []float64{0.05, 0.3, 0.7, 0.99} {
		x := LogNormal(u, mu, sigma)
		if math.Abs(LogNormalCDF(x, mu, sigma)-u) > 1e-9 {
			t.Errorf("CDF(quantile(%v)) mismatch", u)
		}
	}
	if LogNormalCDF(-1, mu, sigma) != 0 || LogNormalCDF(0, mu, sigma) != 0 {
		t.Error("CDF must be 0 for non-positive x")
	}
}

// Property: the empirical CDF of hash-driven log-normal samples matches the
// analytic CDF (a goodness-of-fit smoke test for the retention model's
// foundation).
func TestLogNormalEmpiricalCDF(t *testing.T) {
	mu, sigma := 8.0, 0.6
	const n = 20000
	x := math.Exp(mu - sigma) // one sigma below the median (in log space)
	count := 0
	for i := 0; i < n; i++ {
		u := Uniform01(HashN(99, uint64(i)))
		if LogNormal(u, mu, sigma) <= x {
			count++
		}
	}
	got := float64(count) / n
	want := LogNormalCDF(x, mu, sigma) // = Phi(-1) ~ 0.1587
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical CDF %v, analytic %v", got, want)
	}
}

// quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}
