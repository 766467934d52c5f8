package core

import (
	"time"

	"repro/internal/sat"
)

// This file is the solve session's guarded mode: recovery from
// miscorrection profiles that may contain observation errors. The exact
// mode treats every profile entry as ground truth, so a single
// false-positive entry — a bit marked miscorrection-possible that never was
// (paper §6's FP analysis; HARP's per-bit Bernoulli observation models) —
// makes the whole system UNSAT and recovery fails. Guarded mode
// (SolveOptions.Noisy) instead attaches every entry's constraints behind a
// retractable guard literal and, on UNSAT, retracts the least-supported
// entry of the solver's failed-assumption core, escalating the dropped
// count until a code is found or the drop budget is spent. Because the
// ground-truth code satisfies every true entry, any UNSAT core must contain
// at least one corrupted entry — so core-guided retraction converges on the
// corrupted entries without knowing which they are.

// NoisyOptions tunes the noise-tolerant solve (SolveOptions.Noisy).
type NoisyOptions struct {
	// MaxDrop bounds how many profile entries the drop-k relaxation may
	// retract: 0 permits none (the solve either succeeds with every entry
	// active or reports clean UNSAT), negative means unlimited.
	MaxDrop int
	// Support scores each profile entry's observation support in [0, 1],
	// aligned with Profile.Entries; the relaxation retracts low-support
	// core members first. Nil (or short) defaults missing scores to 1 —
	// the UNSAT-core guidance alone still converges, support only biases
	// which core member goes first.
	Support []float64
	// Timeout bounds each SAT call in wall-clock time (0 = unlimited). A
	// timed-out solve returns sat.ErrTimeout — HARP's discard rule: the
	// caller drops that sample and moves on, the session's backend stays
	// reusable.
	Timeout time.Duration
}

// NoiseInfo reports the drop-k relaxation outcome of a noisy solve.
type NoiseInfo struct {
	// Total, Retained and Dropped count the profile's entries: Total =
	// Retained + Dropped.
	Total, Retained, Dropped int
	// DroppedEntries lists the indexes (into the solved profile's Entries)
	// of the retracted entries, in retraction order.
	DroppedEntries []int
	// Confidence grades the recovery in [0, 1]: the fraction of entries
	// retained times the agreement of the surviving candidate set
	// (1/candidates). A clean profile solved to a unique code scores
	// exactly 1.0; every dropped entry and every extra surviving candidate
	// lowers it. Zero when no code was found.
	Confidence float64
	// Margin is the support gap between the retained and dropped sets: the
	// minimum support among retained entries minus the maximum support
	// among dropped ones (just the former when nothing was dropped). A
	// large margin means the relaxation separated well-supported
	// observations from marginal ones; a margin near zero means it had to
	// discard entries as credible as those it kept.
	Margin float64
}

// support returns entry i's observation support score.
func (ss *solveSession) support(i int) float64 {
	if i >= len(ss.opts.Noisy.Support) {
		return 1
	}
	return ss.opts.Noisy.Support[i]
}

// assumptions collects the guard literals of the active entries in entry
// order — a stable order, so consecutive solves share a maximal assumption
// prefix and reuse the established trail.
func (ss *solveSession) assumptions() []sat.Lit {
	out := make([]sat.Lit, 0, len(ss.guards))
	for i, g := range ss.guards {
		if ss.active[i] {
			out = append(out, g)
		}
	}
	return out
}

// retract answers an UNSAT search in guarded mode before the session's
// first model: it retracts one entry of the failed-assumption core, within
// the MaxDrop budget. It returns false, making the UNSAT final, in exact
// mode, once a model has frozen the drop set, when the budget is spent, or
// when the core holds no retained entry.
func (ss *solveSession) retract() bool {
	if !ss.guarded() || len(ss.found) > 0 {
		return false
	}
	maxDrop := ss.opts.Noisy.MaxDrop
	if maxDrop < 0 {
		maxDrop = len(ss.entries)
	}
	return len(ss.dropped) < maxDrop && ss.retractFromCore(ss.enc.s.FailedAssumptions())
}

// retractFromCore picks and retracts one entry from the failed-assumption
// core: lowest support first, then most prior core appearances (corrupted
// entries recur in every core), then lowest index. It returns false when
// the core maps to no active entry (which means the formula is UNSAT
// independent of the entries).
func (ss *solveSession) retractFromCore(core []sat.Lit) bool {
	victim := -1
	guardIndex := make(map[sat.Lit]int, len(ss.guards))
	for i, g := range ss.guards {
		guardIndex[g] = i
	}
	for _, l := range core {
		i, ok := guardIndex[l]
		if !ok || !ss.active[i] {
			continue
		}
		ss.coreHits[i]++
		if victim == -1 {
			victim = i
			continue
		}
		si, sv := ss.support(i), ss.support(victim)
		switch {
		case si < sv:
			victim = i
		case si == sv && ss.coreHits[i] > ss.coreHits[victim]:
			victim = i
		}
	}
	if victim == -1 {
		return false
	}
	ss.active[victim] = false
	ss.dropped = append(ss.dropped, victim)
	return true
}

// confidence is NoiseInfo.Confidence for the current retained/dropped split
// and candidate count.
func (ss *solveSession) confidence(candidates int) float64 {
	if candidates == 0 {
		return 0
	}
	retainedFrac := 1.0
	if total := len(ss.entries); total > 0 {
		retainedFrac = float64(total-len(ss.dropped)) / float64(total)
	}
	return retainedFrac / float64(candidates)
}

// noiseInfo assembles the NoiseInfo for the current retained/dropped split
// and candidate count.
func (ss *solveSession) noiseInfo(candidates int) *NoiseInfo {
	info := &NoiseInfo{
		Total:          len(ss.entries),
		Retained:       len(ss.entries) - len(ss.dropped),
		Dropped:        len(ss.dropped),
		DroppedEntries: append([]int(nil), ss.dropped...),
		Confidence:     ss.confidence(candidates),
	}
	minRetained, maxDropped := 0.0, 0.0
	first := true
	for i := range ss.entries {
		if ss.active[i] {
			if s := ss.support(i); first || s < minRetained {
				minRetained, first = s, false
			}
		}
	}
	for _, i := range ss.dropped {
		if s := ss.support(i); s > maxDropped {
			maxDropped = s
		}
	}
	if !first {
		info.Margin = minRetained - maxDropped
	}
	return info
}
