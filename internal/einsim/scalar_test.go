package einsim

import (
	"math/rand/v2"

	"repro/internal/gf2"
)

// runScalar simulates cfg.Words ECC words one at a time through the scalar
// gf2.Vec / Code.Decode path. It is the reference implementation the
// bitsliced Run is differentially tested against (FuzzBitsliced holds the
// codec layers identical; TestRunMatchesScalar holds the aggregate
// statistics together).
func runScalar(cfg Config, rng *rand.Rand) (*Result, error) {
	cond, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	n, k := cfg.Code.N(), cfg.Code.K()
	res := &Result{
		N: n, K: k,
		PreErrors:  make([]int64, n),
		PostErrors: make([]int64, k),
	}
	data := gf2.NewVec(k)
	switch cfg.Pattern {
	case PatternAllOnes:
		for i := 0; i < k; i++ {
			data.Set(i, true)
		}
	case PatternCustom:
		data = cfg.CustomData.Clone()
	}
	for w := 0; w < cfg.Words; w++ {
		if cfg.Pattern == PatternRandom {
			for i := 0; i < k; i++ {
				data.Set(i, rng.IntN(2) == 1)
			}
		}
		cw := cfg.Code.Encode(data)
		var bad gf2.Vec
		var errPositions []int
		switch {
		case cond != nil && cond.probs != nil:
			bad, errPositions = injectConditionedBernoulli(cw, cond, rng)
		case cond != nil:
			bad, errPositions = injectConditioned(cw, cond.cdf, rng)
		default:
			bad, errPositions = inject(cfg, cw, rng)
		}
		res.Words++
		for _, p := range errPositions {
			res.PreErrors[p]++
		}
		dec := cfg.Code.Decode(bad)
		postErrs := 0
		for b := 0; b < k; b++ {
			if dec.Data.Get(b) != data.Get(b) {
				res.PostErrors[b]++
				postErrs++
			}
		}
		if postErrs > 0 {
			res.WordsWithPostError++
		}
		switch {
		case len(errPositions) == 0:
		case len(errPositions) == 1:
			res.Correctable++
		case dec.Syndrome.Zero():
			res.Silent++
		case dec.FlippedBit >= 0 && contains(errPositions, dec.FlippedBit):
			res.Partial++
		case dec.FlippedBit >= 0:
			res.Miscorrected++
		default:
			// Unmatched syndrome on a shortened code: detected but
			// uncorrected; counts as partial (no new error introduced).
			res.Partial++
		}
	}
	return res, nil
}

// inject applies the configured error model to a codeword, returning the
// corrupted word and the flipped positions.
func inject(cfg Config, cw gf2.Vec, rng *rand.Rand) (gf2.Vec, []int) {
	bad := cw.Clone()
	var errs []int
	n := cw.Len()
	if cfg.Model == ModelPerBitBernoulli {
		for i := 0; i < n; i++ {
			if p := cfg.BitFailProb[i]; p > 0 && rng.Float64() < p {
				bad.Flip(i)
				errs = append(errs, i)
			}
		}
		return bad, errs
	}
	if cfg.RBER == 0 {
		return bad, nil
	}
	// Geometric skipping keeps low-RBER simulation fast.
	pos := nextHit(rng, cfg.RBER, -1)
	for pos < n {
		if cfg.Model == ModelUniform || cw.Get(pos) {
			bad.Flip(pos)
			errs = append(errs, pos)
		}
		pos = nextHit(rng, cfg.RBER, pos)
	}
	return bad, errs
}

// injectConditioned draws an error count from the truncated binomial CDF and
// flips that many uniformly-chosen distinct positions.
func injectConditioned(cw gf2.Vec, cdf []float64, rng *rand.Rand) (gf2.Vec, []int) {
	u := rng.Float64()
	m := 0
	for m < len(cdf)-1 && cdf[m] < u {
		m++
	}
	bad := cw.Clone()
	n := cw.Len()
	errs := rng.Perm(n)[:m]
	for _, p := range errs {
		bad.Flip(p)
	}
	return bad, errs
}

// injectConditionedBernoulli is the scalar conditioned path for the per-bit
// Bernoulli model: one count draw, then the conditional per-bit walk.
func injectConditionedBernoulli(cw gf2.Vec, cs *condSampler, rng *rand.Rand) (gf2.Vec, []int) {
	bad := cw.Clone()
	errs := cs.bernoulliPositions(cs.count(rng), nil, rng)
	for _, p := range errs {
		bad.Flip(p)
	}
	return bad, errs
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
