package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro"
	"repro/internal/store"
)

// This file derives the two spec identities the serving layer keys on:
//
//   - ProfileKey: the cache identity — which solve-cache entry (and which
//     cluster-ring slot) a job's work lands on. Submissions that differ only
//     in fields that cannot change the observed miscorrection profile share
//     a ProfileKey. cluster.RoutingKey delegates here, so the consistent-hash
//     ring and the single-flight index agree on what "the same profile"
//     means.
//
//   - dedupeKey: the execution identity — whether two submissions would
//     produce byte-identical results and may therefore share one execution.
//     It is the ProfileKey plus every remaining result-affecting field of
//     the normalized spec, so single-flighting on it is safe: a joined
//     caller observes exactly the status stream and result it would have
//     computed itself.
//
// The distinction matters: chip count, rounds or the verify flag do not move
// a job to a different worker (same profile, same cache line), but they do
// change the result body, so they widen the dedupe key without touching the
// profile key.

// profileKeys memoizes the analytic profile hash per (manufacturer, k,
// patterns, anti, seed) model tuple. The closed-form profile computation is
// microseconds of work, but it sits on the submission hot path — under load
// every POST would otherwise re-derive the same few hashes. The LRU's
// single-flight Get also collapses a thundering herd of first submissions
// into one computation.
var profileKeys = store.NewLRU[string, string](256)

// ProfileKey returns the spec's cache identity.
//
// For recovery jobs this is the canonical hash (core.Profile.Hash) of the
// miscorrection profile the job is going to observe, computed analytically
// from the chip model's known ECC function via the §4 closed form
// (repro.ExactProfile) — no experiment runs. Anti-cell collection appends
// inverted-pattern entries to the observed profile, so UseAntiRows keys on a
// "+anti" variant. Planned jobs observe a deterministic prefix of the full
// profile and share the full-sweep key on purpose.
//
// Simulation jobs have no miscorrection profile; they key on the normalized
// simulation parameters.
func ProfileKey(spec JobSpec) string {
	spec = spec.Normalized()
	switch spec.Type {
	case "recover":
		memo := fmt.Sprintf("%s|%d|%s|%t|%d",
			spec.Manufacturer, spec.K, spec.Patterns, spec.UseAntiRows, spec.Seed)
		return profileKeys.Get(memo, func() string {
			code := repro.GroundTruth(repro.SimulatedChip(repro.Manufacturer(spec.Manufacturer), spec.K, spec.Seed))
			patterns := repro.Set12
			if spec.Patterns == "1" {
				patterns = repro.Set1
			}
			key := repro.ExactProfile(code, patterns.Patterns(spec.K)).Hash()
			if spec.UseAntiRows {
				key += "+anti"
			}
			return key
		})
	case "simulate":
		canon := fmt.Sprintf("sim|k=%d|words=%d|rber=%g|family=%s|pattern=%s|model=%s|seed=%d",
			spec.K, spec.Words, spec.RBER, spec.CodeFamily, spec.Pattern, spec.Model, spec.Seed)
		sum := sha256.Sum256([]byte(canon))
		return hex.EncodeToString(sum[:])
	default:
		// Unknown types are rejected by validation before either consumer
		// needs a key; a defensive constant keeps the cluster ring total.
		return "unroutable"
	}
}

// dedupeKey returns the spec's execution identity: the single-flight index
// key under which concurrent identical submissions share one job. Two specs
// map to the same key iff their normalized forms request byte-identical
// work, so the key is the ProfileKey plus every result-affecting field the
// profile key deliberately ignores.
func dedupeKey(spec JobSpec) string {
	spec = spec.Normalized()
	switch spec.Type {
	case "recover":
		// MaxDrop distinguishes nil (robust solver off) from explicit values,
		// including 0 ("drop nothing") and -1 ("unlimited").
		maxDrop := "nil"
		if spec.MaxDrop != nil {
			maxDrop = strconv.Itoa(*spec.MaxDrop)
		}
		return fmt.Sprintf("recover|%s|chips=%d|seed=%d|rounds=%d|win=%d|plan=%t|verify=%t|fp=%g|fn=%g|nseed=%d|drop=%s",
			ProfileKey(spec), spec.Chips, spec.Seed, spec.Rounds, spec.MaxWindowMinutes,
			spec.Plan, spec.Verify,
			spec.NoiseFP, spec.NoiseFN, spec.NoiseSeed, maxDrop)
	case "simulate":
		// The simulate ProfileKey already canonicalizes every result-affecting
		// parameter.
		return "simulate|" + ProfileKey(spec)
	default:
		// Unreachable after Prepare validated the spec; never collapse two
		// distinct invalid specs onto one key.
		return fmt.Sprintf("invalid|%#v", spec)
	}
}
