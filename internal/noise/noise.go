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
// simulation).
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

// zero reports whether the model never corrupts anything.
func (m Model) zero() bool { return m.FP == 0 && m.FN == 0 }

// perturb returns a corrupted copy of a profile plus the indexes of the
// entries it changed (ascending). CHARGED positions are never touched —
// they are ambiguous by construction ('?' in the paper's Table 2) and
// carry no constraint. The input profile is not modified. Determinism: the
// corruption depends only on (Model, profile shape), not on call order.
func (m Model) perturb(p *core.Profile) (*core.Profile, []int) {
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
	if m.zero() {
		return nil
	}
	return func(p *core.Profile) *core.Profile {
		out, _ := m.perturb(p)
		return out
	}
}
