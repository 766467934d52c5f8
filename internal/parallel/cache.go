package parallel

import (
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/store"
)

// The engine's hot-object caches are instances of store.LRU, the
// repository's one bounded single-flight cache primitive (the same type
// fronts the durable recovered-code registry inside store.Store). The engine
// keeps its caches at the object layer — sharing *core.Profile pointers, no
// serialization — because exact profiles are recomputed many times within a
// process (Figure 5 sweeps, ablations) but never need to survive it.

const (
	defaultProfileCacheSize = 256
	defaultPatternCacheSize = 64
)

// profileKey identifies one exact miscorrection profile: the code (by
// fingerprint and shape), the pattern family, and the cell polarity — the
// anti flag selects the anti-cell error model, whose profiles differ from the
// true-cell ones for the same code and patterns (see core.ExactProfileAnti).
type profileKey struct {
	fp   uint64
	n, k int
	set  core.PatternSet
	anti bool
}

// codeFingerprint hashes a code's shape and parity-check columns (FNV-1a).
// Codes with equal H always collide, which is the point: the cache returns
// the same profile object for repeated queries of the same function.
func codeFingerprint(c *ecc.Code) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(c.N()))
	mix(uint64(c.K()))
	for j := 0; j < c.N(); j++ {
		mix(c.Column(j).Uint64())
	}
	return h
}

// ExactProfile returns the analytic miscorrection profile of a known code for
// a pattern family and cell polarity, memoized in the engine's LRU cache.
// Repeated queries for the same (code, polarity, pattern family) return the
// same *core.Profile object without recomputation — concurrent first
// requests single-flight — so callers must treat the result as read-only.
func (e *Engine) ExactProfile(code *ecc.Code, set core.PatternSet, anti bool) *core.Profile {
	key := profileKey{fp: codeFingerprint(code), n: code.N(), k: code.K(), set: set, anti: anti}
	return e.profiles.Get(key, func() *core.Profile {
		patterns := e.patternFamily(set, code.K())
		if anti {
			return core.ExactProfileAnti(code, patterns)
		}
		return core.ExactProfile(code, patterns)
	})
}

// patternKey identifies a materialized pattern family.
type patternKey struct {
	set core.PatternSet
	k   int
}

// patternFamily materializes a pattern family for dataword length k, memoized.
// The 2-CHARGED family is quadratic in k and sweeps like Figure 5 request it
// once per trial; callers must not mutate the returned slice.
func (e *Engine) patternFamily(set core.PatternSet, k int) []core.Pattern {
	return e.patterns.Get(patternKey{set: set, k: k}, func() []core.Pattern {
		return set.Patterns(k)
	})
}

// newProfileCache and newPatternCache size the engine's caches.
func newProfileCache() *store.LRU[profileKey, *core.Profile] {
	return store.NewLRU[profileKey, *core.Profile](defaultProfileCacheSize)
}

func newPatternCache() *store.LRU[patternKey, []core.Pattern] {
	return store.NewLRU[patternKey, []core.Pattern](defaultPatternCacheSize)
}
