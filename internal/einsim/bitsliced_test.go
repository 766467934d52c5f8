package einsim

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ecc"
)

// rates reduces a Result to per-word outcome rates for distribution-level
// comparison between the bitsliced and scalar engines.
func rates(r *Result) map[string]float64 {
	w := float64(r.Words)
	pre := int64(0)
	for _, c := range r.PreErrors {
		pre += c
	}
	post := int64(0)
	for _, c := range r.PostErrors {
		post += c
	}
	return map[string]float64{
		"pre":         float64(pre) / w,
		"post":        float64(post) / w,
		"correctable": float64(r.Correctable) / w,
		"silent":      float64(r.Silent) / w,
		"partial":     float64(r.Partial) / w,
		"misc":        float64(r.Miscorrected) / w,
		"wordsPost":   float64(r.WordsWithPostError) / w,
	}
}

// TestRunMatchesScalar holds the bitsliced engine's aggregate statistics to
// the scalar reference across patterns, models and conditioning. The two
// consume randomness differently, so the comparison is distributional: equal
// rates within a tolerance scaled to the Monte-Carlo noise floor.
func TestRunMatchesScalar(t *testing.T) {
	const words = 60000
	cases := []Config{
		{Code: ecc.SequentialHamming(16), Pattern: PatternRandom, Model: ModelUniform, RBER: 0.05, Words: words},
		{Code: ecc.SequentialHamming(32), Pattern: PatternAllOnes, Model: ModelRetention, RBER: 0.08, Words: words},
		{Code: ecc.BitReversedHamming(26), Pattern: PatternAllOnes, Model: ModelUniform, RBER: 1e-3, Words: words, ConditionMinErrors: 2},
		{Code: ecc.SequentialHamming(8), Pattern: PatternAllZeros, Model: ModelUniform, RBER: 0.1, Words: words},
	}
	for ci, cfg := range cases {
		batch, err := Run(cfg, rand.New(rand.NewPCG(7, uint64(ci))))
		if err != nil {
			t.Fatalf("case %d: Run: %v", ci, err)
		}
		scalar, err := runScalar(cfg, rand.New(rand.NewPCG(11, uint64(ci))))
		if err != nil {
			t.Fatalf("case %d: runScalar: %v", ci, err)
		}
		if batch.Words != int64(cfg.Words) || scalar.Words != int64(cfg.Words) {
			t.Fatalf("case %d: word counts %d/%d, want %d", ci, batch.Words, scalar.Words, cfg.Words)
		}
		br, sr := rates(batch), rates(scalar)
		for key, bv := range br {
			sv := sr[key]
			// Tolerance: a generous multiple of the binomial standard error
			// at this sample size, floored for near-zero rates.
			tol := 8*math.Sqrt(math.Max(sv, 1e-4)/words) + 1e-3
			if math.Abs(bv-sv) > tol {
				t.Errorf("case %d: %s rate: bitsliced %.5f vs scalar %.5f (tol %.5f)", ci, key, bv, sv, tol)
			}
		}
	}
}

// TestRunRaggedBatch checks word accounting and invariants for counts that
// do not divide into full 64-lane batches.
func TestRunRaggedBatch(t *testing.T) {
	for _, words := range []int{1, 63, 64, 65, 100, 129} {
		cfg := Config{Code: ecc.Hamming74(), Pattern: PatternRandom, Model: ModelUniform, RBER: 0.2, Words: words}
		res, err := Run(cfg, rand.New(rand.NewPCG(3, uint64(words))))
		if err != nil {
			t.Fatal(err)
		}
		if res.Words != int64(words) {
			t.Fatalf("words=%d: counted %d", words, res.Words)
		}
		classified := res.Correctable + res.Silent + res.Partial + res.Miscorrected
		if classified > res.Words {
			t.Fatalf("words=%d: classified %d > words", words, classified)
		}
		if res.WordsWithPostError > res.Words {
			t.Fatalf("words=%d: WordsWithPostError %d > words", words, res.WordsWithPostError)
		}
	}
}

// TestRunSteadyStateAllocs pins the zero-alloc batch property: after warmup,
// a Run costs only its Result (a handful of allocations), independent of the
// word count.
func TestRunSteadyStateAllocs(t *testing.T) {
	cfg := Config{Code: ecc.SequentialHamming(32), Pattern: PatternRandom, Model: ModelUniform, RBER: 0.01, Words: 4096}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := Run(cfg, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, rng); err != nil {
			t.Fatal(err)
		}
	})
	// Result + its two slices, plus pool bookkeeping slack.
	if allocs > 8 {
		t.Fatalf("Run allocated %v times per 4096-word run; want <= 8", allocs)
	}
}
