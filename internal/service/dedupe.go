package service

import (
	"fmt"
	"strconv"
)

// dedupeKey returns the spec's execution identity: the single-flight index
// key under which concurrent identical submissions share one job. Two specs
// map to the same key iff their normalized forms request byte-identical
// work, so the key lists every result-affecting field of the normalized
// spec and nothing else — use_lazy_solver, which selects nothing, is left
// out. Single-flighting on it is safe: a joined caller observes exactly the
// status stream and result it would have computed itself.
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
		return fmt.Sprintf("recover|mfr=%s|k=%d|patterns=%s|anti=%t|chips=%d|seed=%d|rounds=%d|win=%d|plan=%t|verify=%t|fp=%g|fn=%g|nseed=%d|drop=%s",
			spec.Manufacturer, spec.K, spec.Patterns, spec.UseAntiRows,
			spec.Chips, spec.Seed, spec.Rounds, spec.MaxWindowMinutes,
			spec.Plan, spec.Verify,
			spec.NoiseFP, spec.NoiseFN, spec.NoiseSeed, maxDrop)
	case "simulate":
		return fmt.Sprintf("simulate|k=%d|words=%d|rber=%g|family=%s|pattern=%s|model=%s|seed=%d",
			spec.K, spec.Words, spec.RBER, spec.CodeFamily, spec.Pattern, spec.Model, spec.Seed)
	default:
		// Unreachable after Prepare validated the spec; never collapse two
		// distinct invalid specs onto one key.
		return fmt.Sprintf("invalid|%#v", spec)
	}
}
