// Package einsim is a word-level Monte-Carlo simulator of DRAM error
// correction, reimplementing the role of the EINSim tool the paper builds on
// ([2] in the paper; github.com/CMU-SAFARI/EINSim): given an ECC code, a data
// pattern, and an error model, it simulates many ECC words and aggregates
// pre- and post-correction error statistics per bit position.
//
// Figure 1 of the paper is produced this way: three different ECC functions
// of the same (38, 32) shape, a 0xFF data pattern, uniform-random
// pre-correction errors at RBER 1e-4, and 10^9 simulated words show that the
// post-correction error distribution across bit positions is a fingerprint
// of the specific parity-check matrix.
//
// The simulator is bitsliced (DESIGN.md §11): words are processed in batches
// of 64 lanes through ecc.BitCodec, so encode, injection, syndrome and
// correction cost one word operation per bit position instead of per word,
// and batch buffers come from a pooled gf2.Slab so the steady state
// allocates nothing per batch. The original one-word-at-a-time gf2.Vec
// path, runScalar, lives in a test file as the differential-testing
// reference.
//
// Entry points: Run simulates one Config serially from a caller-supplied
// RNG; parallel.Engine.Simulate shards the same computation bit-identically
// across a worker pool (facade: repro.Pipeline.Simulate; CLI: cmd/einsim,
// which can also load a BEER-recovered function via -code). Same-shape
// Results combine with Result.Merge — the associativity the sharded path
// relies on.
package einsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// DataPattern selects the dataword written to each simulated word.
type DataPattern int

const (
	// PatternAllOnes is the paper's 0xFF pattern.
	PatternAllOnes DataPattern = iota
	// PatternAllZeros writes all zeros.
	PatternAllZeros
	// PatternRandom draws a fresh uniform dataword per simulated word
	// (the paper's RANDOM pattern).
	PatternRandom
	// PatternCustom uses Config.CustomData for every word.
	PatternCustom
)

func (p DataPattern) String() string {
	switch p {
	case PatternAllOnes:
		return "0xFF"
	case PatternAllZeros:
		return "0x00"
	case PatternRandom:
		return "RANDOM"
	case PatternCustom:
		return "CUSTOM"
	}
	return fmt.Sprintf("DataPattern(%d)", int(p))
}

// ErrorModel selects how pre-correction errors are injected.
type ErrorModel int

const (
	// ModelUniform flips every codeword bit independently with probability
	// RBER, regardless of its value (Figure 1's model).
	ModelUniform ErrorModel = iota
	// ModelRetention flips only CHARGED cells (true-cell convention: bits
	// storing 1), each with probability RBER — the unidirectional
	// data-retention model of §3.2.
	ModelRetention
	// ModelPerBitBernoulli flips codeword bit i independently with its own
	// probability Config.BitFailProb[i], regardless of value — HARP's
	// per-bit Bernoulli error model. Heterogeneous per-bit rates produce the
	// uneven miscorrection-observation counts that the noisy recovery path
	// (internal/noise, core.Solve with SolveOptions.Noisy) is built for.
	ModelPerBitBernoulli
)

func (m ErrorModel) String() string {
	switch m {
	case ModelUniform:
		return "UNIFORM"
	case ModelPerBitBernoulli:
		return "PER_BIT_BERNOULLI"
	}
	return "RETENTION"
}

// Config describes one simulation.
type Config struct {
	Code       *ecc.Code
	Pattern    DataPattern
	CustomData gf2.Vec
	Model      ErrorModel
	RBER       float64
	Words      int
	// BitFailProb gives codeword bit i's independent flip probability for
	// ModelPerBitBernoulli; its length must equal the code's n. Ignored by
	// the other models.
	BitFailProb []float64
	// ConditionMinErrors, when positive, samples only words with at least
	// this many injected errors (importance sampling). At Figure 1's RBER of
	// 1e-4 fewer than one word in 10^5 has the >= 2 errors needed to produce
	// any post-correction error, which is why the paper burns 10^9 words;
	// conditioning reproduces the same relative post-correction
	// distributions at a tiny fraction of the cost. Supported for
	// ModelUniform (binomial) and ModelPerBitBernoulli (Poisson-binomial);
	// ModelRetention's rates depend on the encoded word, so its error-count
	// distribution is not fixed and conditioning is rejected.
	ConditionMinErrors int
}

// Result aggregates simulation statistics. Results from independent batches
// of the same configuration can be combined with Merge.
type Result struct {
	N, K  int
	Words int64
	// PreErrors[i] counts pre-correction errors at codeword bit i.
	PreErrors []int64
	// PostErrors[b] counts post-correction errors at data bit b.
	PostErrors []int64
	// Outcome classification of words with uncorrectable (>= 2) errors,
	// following §3.3: silent corruption (zero syndrome), partial correction
	// (decoder flipped one of the true errors), miscorrection (decoder
	// flipped a clean bit).
	Correctable, Silent, Partial, Miscorrected int64
	// WordsWithPostError counts words whose post-correction dataword
	// differs from what was written.
	WordsWithPostError int64
}

// condSampler draws per-word injected-error vectors conditioned on a
// minimum error count. cdf is the truncated error-count CDF (binomial for
// ModelUniform, Poisson-binomial for ModelPerBitBernoulli). For the uniform
// model positions given the count are uniform (probs/suffix stay nil, the
// partial-shuffle samplers apply); for the Bernoulli model positions are
// drawn bit-by-bit from the suffix DP table.
type condSampler struct {
	cdf    []float64
	probs  []float64   // per-bit rates; nil for ModelUniform
	suffix [][]float64 // suffix[i][j] = P(exactly j errors among bits i..n-1)
}

// count draws one conditioned error count.
func (cs *condSampler) count(rng *rand.Rand) int {
	u := rng.Float64()
	m := 0
	for m < len(cs.cdf)-1 && cs.cdf[m] < u {
		m++
	}
	return m
}

// bernoulliPositions appends the error positions of one word conditioned on
// exactly m errors: a left-to-right walk where bit i flips with probability
// P(X_i=1 | sum_{i..n-1} = m) = p_i * suffix[i+1][m-1] / suffix[i][m].
func (cs *condSampler) bernoulliPositions(m int, dst []int, rng *rand.Rand) []int {
	n := len(cs.probs)
	for i := 0; i < n && m > 0; i++ {
		if m >= n-i {
			// Every remaining bit must flip; taking this branch explicitly
			// also keeps float roundoff from stranding the walk.
			dst = append(dst, i)
			m--
			continue
		}
		pi := cs.probs[i] * cs.suffix[i+1][m-1] / cs.suffix[i][m]
		if rng.Float64() < pi {
			dst = append(dst, i)
			m--
		}
	}
	return dst
}

// validate checks cfg and, for conditioned sampling, builds the sampler the
// injectors draw error counts (and, for per-bit rates, positions) from.
func validate(cfg Config) (*condSampler, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("einsim: no code configured")
	}
	if cfg.RBER < 0 || cfg.RBER > 1 {
		return nil, fmt.Errorf("einsim: RBER %v out of [0,1]", cfg.RBER)
	}
	if cfg.Pattern == PatternCustom && cfg.CustomData.Len() != cfg.Code.K() {
		return nil, fmt.Errorf("einsim: custom data has %d bits, code wants %d",
			cfg.CustomData.Len(), cfg.Code.K())
	}
	if cfg.Model == ModelPerBitBernoulli {
		if len(cfg.BitFailProb) != cfg.Code.N() {
			return nil, fmt.Errorf("einsim: %s needs one BitFailProb per codeword bit (got %d, code has n=%d)",
				cfg.Model, len(cfg.BitFailProb), cfg.Code.N())
		}
		for i, p := range cfg.BitFailProb {
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("einsim: BitFailProb[%d] = %v out of [0,1]", i, p)
			}
		}
	}
	if cfg.ConditionMinErrors <= 0 {
		return nil, nil
	}
	switch cfg.Model {
	case ModelUniform:
		cdf := truncatedBinomialCDF(cfg.Code.N(), cfg.RBER, cfg.ConditionMinErrors)
		if cdf == nil {
			return nil, fmt.Errorf("einsim: conditioning on >=%d errors is impossible", cfg.ConditionMinErrors)
		}
		return &condSampler{cdf: cdf}, nil
	case ModelPerBitBernoulli:
		suffix := poissonBinomialSuffix(cfg.BitFailProb)
		cdf := truncateCDF(suffix[0], cfg.ConditionMinErrors)
		if cdf == nil {
			return nil, fmt.Errorf("einsim: conditioning on >=%d errors is impossible", cfg.ConditionMinErrors)
		}
		return &condSampler{cdf: cdf, probs: cfg.BitFailProb, suffix: suffix}, nil
	default:
		return nil, fmt.Errorf("einsim: conditioned sampling is not supported for the %s model (word-dependent error counts)", cfg.Model)
	}
}

// scratch is the per-Run batch working set: one slab backs every batch
// buffer, perm is the partial-shuffle buffer for conditioned sampling. Runs
// borrow a scratch from a package pool, so shards re-use warm buffers and a
// steady-state batch allocates nothing.
type scratch struct {
	slab gf2.Slab
	perm []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Run simulates cfg.Words ECC words and aggregates statistics. Words are
// processed in bitsliced batches of up to 64 lanes (the final batch may be
// ragged); the per-word statistics are identical in distribution to
// runScalar, but the RNG consumption differs, so seed-for-seed streams are
// not comparable between the two.
func Run(cfg Config, rng *rand.Rand) (*Result, error) {
	cond, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	bc := cfg.Code.Bitsliced()
	n, k, r := bc.N(), bc.K(), bc.ParityBits()
	res := &Result{
		N: n, K: k,
		PreErrors:  make([]int64, n),
		PostErrors: make([]int64, k),
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	for remaining := cfg.Words; remaining > 0; {
		lanes := 64
		if remaining < lanes {
			lanes = remaining
		}
		remaining -= lanes

		sc.slab.Reset()
		data := sc.slab.Alloc(k, lanes)
		cw := sc.slab.Alloc(n, lanes)
		mask := sc.slab.Alloc(n, lanes)
		synd := sc.slab.Alloc(r, lanes)
		lm := data.LaneMask()
		dw, cww, mw := data.Words(), cw.Words(), mask.Words()

		switch cfg.Pattern {
		case PatternAllOnes:
			for b := 0; b < k; b++ {
				dw[b] = lm
			}
		case PatternAllZeros:
			// Slab buffers come back zeroed.
		case PatternCustom:
			for b := 0; b < k; b++ {
				if cfg.CustomData.Get(b) {
					dw[b] = lm
				}
			}
		case PatternRandom:
			for b := 0; b < k; b++ {
				dw[b] = rng.Uint64() & lm
			}
		}
		bc.Encode(data, cw)
		switch {
		case cond != nil && cond.probs != nil:
			sc.injectConditionedBernoulliBatch(mask, cond, rng)
		case cond != nil:
			sc.injectConditionedBatch(mask, cond.cdf, rng)
		default:
			injectBatch(cfg, cw, mask, rng)
		}

		// Apply the error mask and classify per-lane injected-error counts
		// with a carry-save counter: after the loop, ones holds the count
		// mod 2 and twos flags lanes with >= 2 errors.
		var ones, twos uint64
		for i := 0; i < n; i++ {
			m := mw[i]
			cww[i] ^= m
			res.PreErrors[i] += int64(bits.OnesCount64(m))
			twos |= ones & m
			ones ^= m
		}
		bc.Syndrome(cw, synd)
		dec := bc.Decode(cw, synd, mw)

		var postAny uint64
		for b := 0; b < k; b++ {
			diff := cww[b] ^ dw[b]
			res.PostErrors[b] += int64(bits.OnesCount64(diff))
			postAny |= diff
		}
		res.Words += int64(lanes)
		res.WordsWithPostError += int64(bits.OnesCount64(postAny))
		res.Correctable += int64(bits.OnesCount64(ones &^ twos))
		multi := twos
		res.Silent += int64(bits.OnesCount64(multi &^ dec.SyndromeNonzero))
		detected := multi & dec.SyndromeNonzero
		// Partial: the decoder flipped one of the true errors, or detected
		// an unmatched syndrome and left the word alone (shortened codes).
		partial := detected&dec.FlippedErr | detected&^dec.FlippedAny
		res.Partial += int64(bits.OnesCount64(partial))
		res.Miscorrected += int64(bits.OnesCount64(detected & dec.FlippedAny &^ dec.FlippedErr))
	}
	return res, nil
}

// injectBatch applies the configured error model across the whole batch with
// one geometric-skipping scan over the flattened lane-major position space,
// writing flips into mask. Retention-model draws that land on a discharged
// cell are consumed without flipping, mirroring the scalar path.
func injectBatch(cfg Config, cw, mask gf2.Batch, rng *rand.Rand) {
	n, lanes := cw.Bits(), cw.Lanes()
	if cfg.Model == ModelPerBitBernoulli {
		mw := mask.Words()
		for i := 0; i < n; i++ {
			p := cfg.BitFailProb[i]
			if p == 0 {
				continue
			}
			var m uint64
			for lane := 0; lane < lanes; lane++ {
				if rng.Float64() < p {
					m |= uint64(1) << uint(lane)
				}
			}
			mw[i] |= m
		}
		return
	}
	if cfg.RBER == 0 {
		return
	}
	cww, mw := cw.Words(), mask.Words()
	total := n * lanes
	for pos := nextHit(rng, cfg.RBER, -1); pos < total; pos = nextHit(rng, cfg.RBER, pos) {
		lane, bit := pos/n, pos%n
		lb := uint64(1) << uint(lane)
		if cfg.Model == ModelUniform || cww[bit]&lb != 0 {
			mw[bit] |= lb
		}
	}
}

// injectConditionedBatch draws a per-lane error count from the truncated
// binomial CDF and flips that many uniformly-chosen distinct positions in
// each lane, via a partial Fisher-Yates shuffle over the reusable perm
// buffer.
func (sc *scratch) injectConditionedBatch(mask gf2.Batch, cdf []float64, rng *rand.Rand) {
	n, lanes := mask.Bits(), mask.Lanes()
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	perm := sc.perm[:n]
	mw := mask.Words()
	for lane := 0; lane < lanes; lane++ {
		u := rng.Float64()
		m := 0
		for m < len(cdf)-1 && cdf[m] < u {
			m++
		}
		for i := range perm {
			perm[i] = i
		}
		lb := uint64(1) << uint(lane)
		for t := 0; t < m; t++ {
			s := t + rng.IntN(n-t)
			perm[t], perm[s] = perm[s], perm[t]
			mw[perm[t]] |= lb
		}
	}
}

// injectConditionedBernoulliBatch draws a per-lane error count from the
// truncated Poisson-binomial CDF and places that lane's errors by the
// conditional per-bit walk, reusing the scratch perm buffer for positions.
func (sc *scratch) injectConditionedBernoulliBatch(mask gf2.Batch, cs *condSampler, rng *rand.Rand) {
	lanes := mask.Lanes()
	mw := mask.Words()
	for lane := 0; lane < lanes; lane++ {
		positions := cs.bernoulliPositions(cs.count(rng), sc.perm[:0], rng)
		sc.perm = positions[:0]
		lb := uint64(1) << uint(lane)
		for _, p := range positions {
			mw[p] |= lb
		}
	}
}

// nextHit returns the next position after prev hit by an event of
// probability p per position.
func nextHit(rng *rand.Rand, p float64, prev int) int {
	if p >= 1 {
		return prev + 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	gap := int(math.Ceil(math.Log(u) / math.Log(1-p)))
	if gap < 1 {
		gap = 1
	}
	return prev + gap
}

// truncatedBinomialCDF returns the CDF of Binomial(n, p) conditioned on the
// count being >= min, indexed by count (entries below min are 0). Returns nil
// when the conditional event has no probability mass.
func truncatedBinomialCDF(n int, p float64, min int) []float64 {
	if p <= 0 || min > n {
		return nil
	}
	pmf := make([]float64, n+1)
	// Iterative binomial PMF avoids factorial overflow.
	pmf[0] = math.Pow(1-p, float64(n))
	for m := 1; m <= n; m++ {
		pmf[m] = pmf[m-1] * float64(n-m+1) / float64(m) * p / (1 - p)
	}
	total := 0.0
	for m := min; m <= n; m++ {
		total += pmf[m]
	}
	if total <= 0 {
		return nil
	}
	cdf := make([]float64, n+1)
	acc := 0.0
	for m := 0; m <= n; m++ {
		if m >= min {
			acc += pmf[m] / total
		}
		cdf[m] = acc
	}
	return cdf
}

// poissonBinomialSuffix builds the suffix error-count table for independent
// per-bit rates: suffix[i][j] = P(exactly j errors among bits i..n-1), so
// suffix[0] is the Poisson-binomial PMF of the total count.
func poissonBinomialSuffix(probs []float64) [][]float64 {
	n := len(probs)
	suffix := make([][]float64, n+1)
	suffix[n] = make([]float64, n+1)
	suffix[n][0] = 1
	for i := n - 1; i >= 0; i-- {
		row := make([]float64, n+1)
		p, next := probs[i], suffix[i+1]
		for j := 0; j <= n-i; j++ {
			row[j] = (1 - p) * next[j]
			if j > 0 {
				row[j] += p * next[j-1]
			}
		}
		suffix[i] = row
	}
	return suffix
}

// truncateCDF turns a PMF into the CDF conditioned on the value being
// >= min (entries below min are 0). Returns nil when the conditional event
// has no probability mass.
func truncateCDF(pmf []float64, min int) []float64 {
	if min >= len(pmf) {
		return nil
	}
	total := 0.0
	for m := min; m < len(pmf); m++ {
		total += pmf[m]
	}
	if total <= 0 {
		return nil
	}
	cdf := make([]float64, len(pmf))
	acc := 0.0
	for m := range pmf {
		if m >= min {
			acc += pmf[m] / total
		}
		cdf[m] = acc
	}
	return cdf
}

// Merge adds another batch's statistics into r. Configurations must match.
func (r *Result) Merge(o *Result) error {
	if r.N != o.N || r.K != o.K {
		return fmt.Errorf("einsim: merging results of different shapes")
	}
	r.Words += o.Words
	for i := range r.PreErrors {
		r.PreErrors[i] += o.PreErrors[i]
	}
	for i := range r.PostErrors {
		r.PostErrors[i] += o.PostErrors[i]
	}
	r.Correctable += o.Correctable
	r.Silent += o.Silent
	r.Partial += o.Partial
	r.Miscorrected += o.Miscorrected
	r.WordsWithPostError += o.WordsWithPostError
	return nil
}

// RelativePostProbabilities returns each data bit's share of all observed
// post-correction errors (Figure 1's y-axis). All-zero results return zeros.
func (r *Result) RelativePostProbabilities() []float64 {
	total := int64(0)
	for _, c := range r.PostErrors {
		total += c
	}
	out := make([]float64, r.K)
	if total == 0 {
		return out
	}
	for b, c := range r.PostErrors {
		out[b] = float64(c) / float64(total)
	}
	return out
}

// RelativePreProbabilities returns each codeword bit's share of observed
// pre-correction errors.
func (r *Result) RelativePreProbabilities() []float64 {
	total := int64(0)
	for _, c := range r.PreErrors {
		total += c
	}
	out := make([]float64, r.N)
	if total == 0 {
		return out
	}
	for i, c := range r.PreErrors {
		out[i] = float64(c) / float64(total)
	}
	return out
}
