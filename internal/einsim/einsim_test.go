package einsim

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

func run(t *testing.T, cfg Config, seed uint64) *Result {
	t.Helper()
	res, err := Run(cfg, rand.New(rand.NewPCG(seed, seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZeroRBERIsClean(t *testing.T) {
	res := run(t, Config{
		Code: ecc.Hamming74(), Pattern: PatternRandom, Model: ModelUniform,
		RBER: 0, Words: 1000,
	}, 1)
	if res.WordsWithPostError != 0 || res.Correctable != 0 {
		t.Fatalf("clean run produced errors: %+v", res)
	}
	for _, c := range res.PreErrors {
		if c != 0 {
			t.Fatal("pre-correction errors at RBER 0")
		}
	}
}

func TestUniformModelErrorRate(t *testing.T) {
	code := ecc.SequentialHamming(32)
	rber := 1e-3
	words := 200000
	res := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: rber, Words: words}, 2)
	total := int64(0)
	for _, c := range res.PreErrors {
		total += c
	}
	want := rber * float64(words*code.N())
	if math.Abs(float64(total)-want) > 0.1*want {
		t.Fatalf("injected %d errors, want about %.0f", total, want)
	}
	// Uniform across positions: no bit should deviate wildly from the mean.
	mean := float64(total) / float64(code.N())
	for i, c := range res.PreErrors {
		if math.Abs(float64(c)-mean) > 6*math.Sqrt(mean) {
			t.Fatalf("bit %d count %d deviates from mean %.1f", i, c, mean)
		}
	}
}

func TestRetentionModelOnlyChargedBitsFail(t *testing.T) {
	code := ecc.SequentialHamming(16)
	// Pattern with data zeros: only parity cells that encode to 1 may fail.
	res := run(t, Config{Code: code, Pattern: PatternAllZeros, Model: ModelRetention,
		RBER: 0.2, Words: 20000}, 3)
	zero := gf2.NewVec(16)
	cw := code.Encode(zero) // all-zero codeword: nothing is charged
	for i, c := range res.PreErrors {
		if !cw.Get(i) && c != 0 {
			t.Fatalf("discharged bit %d saw %d retention errors", i, c)
		}
	}
	// All-zero codeword: no cell charged at all, so no errors anywhere.
	if res.WordsWithPostError != 0 {
		t.Fatal("all-zero codeword cannot experience retention errors")
	}

	// All-ones data: every data cell charged; errors must appear.
	res = run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelRetention,
		RBER: 0.2, Words: 5000}, 4)
	dataErrs := int64(0)
	for _, c := range res.PreErrors[:16] {
		dataErrs += c
	}
	if dataErrs == 0 {
		t.Fatal("charged data bits never failed at RBER 0.2")
	}
}

func TestOutcomeClassificationInvariants(t *testing.T) {
	code := ecc.SequentialHamming(32)
	res := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: 5e-3, Words: 100000}, 5)
	// Every word with >= 2 errors lands in exactly one bucket; single-bit
	// errors are always corrected (SEC guarantee).
	if res.Correctable == 0 || res.Miscorrected == 0 {
		t.Fatalf("expected both correctable and miscorrected words: %+v", res)
	}
	// Words with post-correction errors must be at most the uncorrectable
	// words (silent + partial + miscorrected).
	uncorrectable := res.Silent + res.Partial + res.Miscorrected
	if res.WordsWithPostError > uncorrectable {
		t.Fatalf("%d words with post errors but only %d uncorrectable",
			res.WordsWithPostError, uncorrectable)
	}
	// Miscorrections strictly add errors, so every miscorrected word shows a
	// post-correction error... unless the miscorrection hit a parity bit.
	if res.WordsWithPostError == 0 {
		t.Fatal("uncorrectable errors should leave visible damage")
	}
}

// Figure 1's headline: same pre-correction behavior, different ECC functions,
// different post-correction fingerprints.
func TestDifferentCodesDifferentPostDistributions(t *testing.T) {
	mk := func(code *ecc.Code, seed uint64) []float64 {
		res := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
			RBER: 1e-3, Words: 300000}, seed)
		return res.RelativePostProbabilities()
	}
	rng := rand.New(rand.NewPCG(9, 9))
	a := mk(ecc.SequentialHamming(32), 10)
	b := mk(ecc.RandomHamming(32, rng), 10) // same seed: same injected noise
	// L1 distance between the two distributions should be clearly nonzero.
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	if d < 0.05 {
		t.Fatalf("post-correction distributions indistinguishable (L1=%v)", d)
	}
}

func TestPreDistributionFlatUnderUniform(t *testing.T) {
	code := ecc.SequentialHamming(32)
	res := run(t, Config{Code: code, Pattern: PatternRandom, Model: ModelUniform,
		RBER: 1e-3, Words: 200000}, 11)
	probs := res.RelativePreProbabilities()
	want := 1.0 / float64(code.N())
	for i, p := range probs {
		if math.Abs(p-want) > 0.35*want {
			t.Fatalf("pre-correction share at bit %d = %v, want ~%v", i, p, want)
		}
	}
}

func TestMerge(t *testing.T) {
	cfg := Config{Code: ecc.Hamming74(), Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: 1e-2, Words: 5000}
	a := run(t, cfg, 20)
	b := run(t, cfg, 21)
	wordsBefore := a.Words
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Words != wordsBefore+b.Words {
		t.Fatal("Merge did not add word counts")
	}
	other := run(t, Config{Code: ecc.SequentialHamming(16), Pattern: PatternAllOnes,
		Model: ModelUniform, RBER: 1e-2, Words: 10}, 22)
	if err := a.Merge(other); err == nil {
		t.Fatal("Merge across shapes must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := Run(Config{}, rng); err == nil {
		t.Fatal("nil code accepted")
	}
	if _, err := Run(Config{Code: ecc.Hamming74(), RBER: 2}, rng); err == nil {
		t.Fatal("RBER > 1 accepted")
	}
	if _, err := Run(Config{Code: ecc.Hamming74(), Pattern: PatternCustom,
		CustomData: gf2.NewVec(3)}, rng); err == nil {
		t.Fatal("mis-sized custom data accepted")
	}
}

func TestRelativeProbabilitiesSumToOne(t *testing.T) {
	res := run(t, Config{Code: ecc.SequentialHamming(16), Pattern: PatternAllOnes,
		Model: ModelUniform, RBER: 1e-2, Words: 50000}, 30)
	sum := 0.0
	for _, p := range res.RelativePostProbabilities() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("post shares sum to %v", sum)
	}
	sum = 0
	for _, p := range res.RelativePreProbabilities() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pre shares sum to %v", sum)
	}
}

func TestConditionedSampling(t *testing.T) {
	code := ecc.SequentialHamming(32)
	res := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: 1e-4, Words: 5000, ConditionMinErrors: 2}, 40)
	// Every word must have at least 2 injected errors: no correctable-only
	// words, plenty of uncorrectable outcomes.
	if res.Correctable != 0 {
		t.Fatalf("conditioned run saw %d single-error words", res.Correctable)
	}
	if res.Silent+res.Partial+res.Miscorrected != res.Words {
		t.Fatalf("outcome buckets (%d) != words (%d)",
			res.Silent+res.Partial+res.Miscorrected, res.Words)
	}
	// Conditioned and unconditioned relative post-correction distributions
	// must agree (this is the importance-sampling correctness property).
	uncond := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: 5e-3, Words: 400000}, 41)
	cond := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelUniform,
		RBER: 5e-3, Words: 100000, ConditionMinErrors: 2}, 42)
	a, b := uncond.RelativePostProbabilities(), cond.RelativePostProbabilities()
	l1 := 0.0
	for i := range a {
		l1 += math.Abs(a[i] - b[i])
	}
	if l1 > 0.12 {
		t.Fatalf("conditioned distribution diverges (L1=%v)", l1)
	}
}

func TestConditionedSamplingValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := Run(Config{Code: ecc.Hamming74(), Model: ModelRetention,
		RBER: 0.1, Words: 1, ConditionMinErrors: 2}, rng); err == nil {
		t.Fatal("conditioning must require the uniform model")
	}
	if _, err := Run(Config{Code: ecc.Hamming74(), Model: ModelUniform,
		RBER: 0.1, Words: 1, ConditionMinErrors: 8}, rng); err == nil {
		t.Fatal("conditioning beyond n errors must fail")
	}
}

func TestPerBitBernoulliValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	code := ecc.Hamming74()
	if _, err := Run(Config{Code: code, Model: ModelPerBitBernoulli, Words: 1}, rng); err == nil {
		t.Fatal("missing BitFailProb accepted")
	} else if !strings.Contains(err.Error(), "PER_BIT_BERNOULLI") {
		t.Fatalf("rejection does not name the model: %v", err)
	}
	bad := make([]float64, code.N())
	bad[2] = 1.5
	if _, err := Run(Config{Code: code, Model: ModelPerBitBernoulli, Words: 1,
		BitFailProb: bad}, rng); err == nil {
		t.Fatal("out-of-range BitFailProb accepted")
	}
}

func TestConditionedSamplingRejectionNamesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	_, err := Run(Config{Code: ecc.Hamming74(), Model: ModelRetention,
		RBER: 0.1, Words: 1, ConditionMinErrors: 2}, rng)
	if err == nil {
		t.Fatal("retention-model conditioning accepted")
	}
	if !strings.Contains(err.Error(), "RETENTION") {
		t.Fatalf("rejection does not name the offending model: %v", err)
	}
}

// TestPerBitBernoulliRates: each bit's pre-correction error count tracks its
// own configured rate, in both the bitsliced and scalar paths.
func TestPerBitBernoulliRates(t *testing.T) {
	code := ecc.SequentialHamming(16)
	probs := make([]float64, code.N())
	for i := range probs {
		probs[i] = 0.01
	}
	probs[0], probs[5] = 0.3, 0.1
	cfg := Config{Code: code, Pattern: PatternAllOnes, Model: ModelPerBitBernoulli,
		BitFailProb: probs, Words: 50000}
	for name, runner := range map[string]func(Config, *rand.Rand) (*Result, error){
		"bitsliced": Run, "scalar": runScalar,
	} {
		res, err := runner(cfg, rand.New(rand.NewPCG(7, 8)))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range probs {
			want := p * float64(cfg.Words)
			got := float64(res.PreErrors[i])
			if math.Abs(got-want) > 6*math.Sqrt(want*(1-p))+1 {
				t.Fatalf("%s: bit %d saw %v errors, want about %v (p=%v)", name, i, got, want, p)
			}
		}
	}
}

// TestPerBitBernoulliConditioned: conditioning on >= 2 errors via the
// Poisson-binomial sampler keeps every word uncorrectable and preserves the
// per-bit rate profile relative to the unconditioned model.
func TestPerBitBernoulliConditioned(t *testing.T) {
	code := ecc.SequentialHamming(16)
	probs := make([]float64, code.N())
	for i := range probs {
		probs[i] = 0.005
	}
	probs[3] = 0.05
	cond := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelPerBitBernoulli,
		BitFailProb: probs, Words: 20000, ConditionMinErrors: 2}, 50)
	if cond.Correctable != 0 {
		t.Fatalf("conditioned run saw %d single-error words", cond.Correctable)
	}
	if cond.Silent+cond.Partial+cond.Miscorrected != cond.Words {
		t.Fatalf("outcome buckets (%d) != words (%d)",
			cond.Silent+cond.Partial+cond.Miscorrected, cond.Words)
	}
	// The high-rate bit must dominate the conditioned pre-error distribution
	// just as it does unconditioned.
	uncond := run(t, Config{Code: code, Pattern: PatternAllOnes, Model: ModelPerBitBernoulli,
		BitFailProb: probs, Words: 200000}, 51)
	for _, res := range []*Result{cond, uncond} {
		for i, c := range res.PreErrors {
			if i != 3 && c >= res.PreErrors[3] {
				t.Fatalf("bit %d (p=%v) out-errored bit 3 (p=%v): %d vs %d",
					i, probs[i], probs[3], c, res.PreErrors[3])
			}
		}
	}
}

// TestPerBitBernoulliScalarBitslicedAgree: the two paths agree in
// distribution on the relative pre-correction profile.
func TestPerBitBernoulliScalarBitslicedAgree(t *testing.T) {
	code := ecc.SequentialHamming(32)
	probs := make([]float64, code.N())
	for i := range probs {
		probs[i] = 0.002 * float64(1+i%5)
	}
	cfg := Config{Code: code, Pattern: PatternRandom, Model: ModelPerBitBernoulli,
		BitFailProb: probs, Words: 100000}
	a, err := Run(cfg, rand.New(rand.NewPCG(60, 61)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScalar(cfg, rand.New(rand.NewPCG(62, 63)))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.RelativePreProbabilities(), b.RelativePreProbabilities()
	l1 := 0.0
	for i := range pa {
		l1 += math.Abs(pa[i] - pb[i])
	}
	if l1 > 0.05 {
		t.Fatalf("bitsliced and scalar pre-error distributions diverge (L1=%v)", l1)
	}
}
