// Package noise models imperfect miscorrection-profile observations — the
// paper's §6 true-/false-positive analysis made operational, following
// HARP's per-bit Bernoulli error models (PBEM_25/50/75/100).
//
// The exact recovery pipeline assumes every profile entry is ground truth:
// a bit marked "possible" really can miscorrect, a bit left unmarked never
// does. Real profiling violates both directions. A profiling campaign that
// is too short misses rare miscorrections (true-positive dropout: the
// entry falsely claims "impossible", HARP's PBEM observation probability);
// ordinary retention errors and read noise can masquerade as
// miscorrections (false-positive injection). Either corruption makes the
// exact SAT system unsatisfiable.
//
// Model captures both per-bit Bernoulli rates and perturbs profiles
// deterministically (for simulation-driven evaluation of the noisy
// recovery path — the generator counterpart is einsim's
// ModelPerBitBernoulli, which injects such errors during Monte-Carlo
// simulation). SupportFromCounts scores each profile entry's observation
// support so the drop-k relaxation in core (SolveOptions.Noisy) retracts
// the weakest-supported entries of an UNSAT core first.
package noise

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
)

// Model is a per-bit Bernoulli observation-error model over miscorrection
// profiles: each non-CHARGED bit of each entry is corrupted independently.
type Model struct {
	// FP is the per-bit probability that a truly-impossible bit is
	// falsely marked miscorrection-possible (false-positive injection —
	// e.g. a retention error misattributed to ECC).
	FP float64
	// FN is the per-bit probability that a truly-possible bit loses its
	// mark (true-positive dropout — the miscorrection was never observed;
	// 1 - HARP's per-bit observation probability).
	FN float64
	// Seed makes the perturbation deterministic; models differing only in
	// Seed draw independent corruption patterns.
	Seed uint64
}

// HARP's pre-correction error observation models, expressed as dropout:
// PBEM_N observes each true miscorrection bit with probability N%.
var (
	PBEM25  = Model{FN: 0.75}
	PBEM50  = Model{FN: 0.50}
	PBEM75  = Model{FN: 0.25}
	PBEM100 = Model{FN: 0}
)

// Validate checks the model's rates.
func (m Model) Validate() error {
	if m.FP < 0 || m.FP > 1 || m.FN < 0 || m.FN > 1 {
		return fmt.Errorf("noise: rates must be in [0,1] (fp=%g, fn=%g)", m.FP, m.FN)
	}
	return nil
}

// Zero reports whether the model never corrupts anything.
func (m Model) Zero() bool { return m.FP == 0 && m.FN == 0 }

// Perturb returns a corrupted copy of a profile plus the indexes of the
// entries it changed (ascending). CHARGED positions are never touched —
// they are ambiguous by construction ('?' in the paper's Table 2) and
// carry no constraint. The input profile is not modified. Determinism: the
// corruption depends only on (Model, profile shape), not on call order.
func (m Model) Perturb(p *core.Profile) (*core.Profile, []int) {
	rng := rand.New(rand.NewPCG(m.Seed, 0x9e3779b97f4a7c15))
	out := &core.Profile{K: p.K, Entries: make([]core.Entry, len(p.Entries))}
	var touched []int
	for i, e := range p.Entries {
		ne := core.Entry{Pattern: e.Pattern, Possible: e.Possible.Clone(), Anti: e.Anti}
		changed := false
		for b := 0; b < p.K; b++ {
			if e.Pattern.Has(b) {
				continue
			}
			switch {
			case e.Possible.Get(b):
				if m.FN > 0 && rng.Float64() < m.FN {
					ne.Possible.Set(b, false)
					changed = true
				}
			default:
				if m.FP > 0 && rng.Float64() < m.FP {
					ne.Possible.Set(b, true)
					changed = true
				}
			}
		}
		out.Entries[i] = ne
		if changed {
			touched = append(touched, i)
		}
	}
	return out, touched
}

// Perturber adapts the model to core.RecoverOptions.PerturbProfile: the
// recovery pipeline's injection point between thresholding and solving. A
// zero model returns nil so the exact pipeline stays untouched.
func (m Model) Perturber() func(*core.Profile) *core.Profile {
	if m.Zero() {
		return nil
	}
	return func(p *core.Profile) *core.Profile {
		out, _ := m.Perturb(p)
		return out
	}
}

// SupportFromCounts scores each profile entry's observation support in
// (0, 1], aligned with prof.Entries, for core.NoisyOptions.Support. An
// entry's support is the observation count of its weakest possible-bit
// normalized by the strongest such count across entries — a bit that
// barely cleared the §5.2 threshold (the false-positive signature) drags
// its entry's score down, while entries whose every possible-bit was seen
// often score near 1. Entries with no possible bits score 1: their
// all-impossible claim is backed by the entire word count. The profile
// must be the counts' Threshold output (same entry order).
func SupportFromCounts(c *core.Counts, prof *core.Profile) ([]float64, error) {
	if c == nil || prof == nil {
		return nil, fmt.Errorf("noise: nil counts or profile")
	}
	if len(c.Entries) != len(prof.Entries) || c.K != prof.K {
		return nil, fmt.Errorf("noise: counts (k=%d, %d entries) do not match profile (k=%d, %d entries)",
			c.K, len(c.Entries), prof.K, len(prof.Entries))
	}
	weakest := make([]int64, len(prof.Entries))
	var strongest int64
	for i, e := range prof.Entries {
		ce := c.Entries[i]
		min := int64(-1)
		for b := 0; b < prof.K; b++ {
			if e.Pattern.Has(b) || !e.Possible.Get(b) {
				continue
			}
			if n := ce.Errors[b]; min < 0 || n < min {
				min = n
			}
		}
		weakest[i] = min
		if min > strongest {
			strongest = min
		}
	}
	support := make([]float64, len(prof.Entries))
	for i, w := range weakest {
		switch {
		case w < 0 || strongest == 0:
			support[i] = 1
		default:
			support[i] = float64(w) / float64(strongest)
		}
	}
	return support, nil
}
