package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/sat"
)

// This file is the noise-tolerant solve engine: recovery from
// miscorrection profiles that may contain observation errors. The exact
// engine (incremental.go) treats every profile entry as ground truth, so a
// single false-positive entry — a bit marked miscorrection-possible that
// never was (paper §6's FP analysis; HARP's per-bit Bernoulli observation
// models) — makes the whole system UNSAT and recovery fails. The noisy
// engine instead attaches every entry's constraints behind a retractable
// guard literal and, on UNSAT, retracts the least-supported entry of the
// solver's failed-assumption core, escalating the dropped count until a
// code is found or the drop budget is spent. Because the ground-truth code
// satisfies every true entry, any UNSAT core must contain at least one
// corrupted entry — so core-guided retraction converges on the corrupted
// entries without knowing which they are.

// NoisyOptions tunes the noise-tolerant solve path (SolveOptions.Noisy).
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

// NoisySolveSession is a noise-tolerant incremental search for the ECC
// functions consistent with *most* of a miscorrection profile. Entries
// stream in via Feed, each encoded behind a fresh guard literal; Solve runs
// the drop-k relaxation loop and candidate enumeration. Unlike
// SolveSession there is no deferred encoding — retractability requires
// every entry's constraints to be materialized — so feeding a large
// multi-CHARGED profile is eager and priced accordingly.
//
// A session is single-goroutine, like the backend it owns.
type NoisySolveSession struct {
	opts SolveOptions
	k, r int
	enc  *encoder

	entries []Entry
	guards  []sat.Lit // guard literal per entry; assumed true = active
	active  []bool
	dropped []int // retraction order
	// coreHits counts how often each entry appeared in an UNSAT core this
	// session: corrupted entries recur in every core (the true entries are
	// mutually consistent), so repeat offenders are retracted first among
	// equal-support candidates.
	coreHits []int
}

// NewNoisySolveSession builds an empty noise-tolerant session for dataword
// length k. opts.Noisy may be nil; defaults then apply (MaxDrop 0).
func NewNoisySolveSession(k int, opts SolveOptions) (*NoisySolveSession, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: profile has no dataword bits")
	}
	r := opts.ParityBits
	if r == 0 {
		r = ecc.MinParityBits(k)
	}
	enc := newEncoder(k, r, opts.backend())
	enc.s.SetMaxConflicts(opts.MaxConflicts)
	if opts.Noisy != nil {
		enc.s.SetTimeout(opts.Noisy.Timeout)
	}
	return &NoisySolveSession{opts: opts, k: k, r: r, enc: enc}, nil
}

// Feed streams profile entries into the session, encoding each one
// immediately behind a fresh guard literal.
func (ns *NoisySolveSession) Feed(entries ...Entry) error {
	for _, entry := range entries {
		if entry.Possible.Len() != ns.k {
			return fmt.Errorf("core: entry %v has %d bits, profile has k=%d",
				entry.Pattern, entry.Possible.Len(), ns.k)
		}
		g := sat.PosLit(ns.enc.s.NewVar())
		ns.enc.setGuard(g)
		ns.enc.addEntry(entry)
		ns.enc.clearGuard()
		ns.entries = append(ns.entries, entry)
		ns.guards = append(ns.guards, g)
		ns.active = append(ns.active, true)
		ns.coreHits = append(ns.coreHits, 0)
	}
	return nil
}

// EntriesFed returns how many profile entries the session has received.
func (ns *NoisySolveSession) EntriesFed() int { return len(ns.entries) }

// Stats returns the backend's cumulative solver counters.
func (ns *NoisySolveSession) Stats() sat.Stats { return ns.enc.s.Statistics() }

// support returns entry i's observation support score.
func (ns *NoisySolveSession) support(i int) float64 {
	if ns.opts.Noisy == nil || i >= len(ns.opts.Noisy.Support) {
		return 1
	}
	return ns.opts.Noisy.Support[i]
}

// assumptions collects the guard literals of the active entries in entry
// order — a stable order, so consecutive solves share a maximal assumption
// prefix and reuse the established trail.
func (ns *NoisySolveSession) assumptions() []sat.Lit {
	out := make([]sat.Lit, 0, len(ns.guards))
	for i, g := range ns.guards {
		if ns.active[i] {
			out = append(out, g)
		}
	}
	return out
}

// matchesRetained reports whether a candidate code's exact profile agrees
// with every *retained* entry — the analytic-oracle cross-check of the
// drop-k survivors. Dropped entries are deliberately not consulted: they
// are the presumed observation errors.
func (ns *NoisySolveSession) matchesRetained(code *ecc.Code) bool {
	for i, entry := range ns.entries {
		if !ns.active[i] {
			continue
		}
		oracle := ExactProfile
		if entry.Anti {
			oracle = ExactProfileAnti
		}
		got := oracle(code, []Pattern{entry.Pattern}).Entries[0].Possible
		if !got.Equal(entry.Possible) {
			return false
		}
	}
	return true
}

// retractFromCore picks and retracts one entry from the failed-assumption
// core: lowest support first, then most prior core appearances (corrupted
// entries recur in every core), then lowest index. It returns false when
// the core maps to no active entry (which means the formula is UNSAT
// independent of the entries).
func (ns *NoisySolveSession) retractFromCore(core []sat.Lit) bool {
	victim := -1
	guardIndex := make(map[sat.Lit]int, len(ns.guards))
	for i, g := range ns.guards {
		guardIndex[g] = i
	}
	for _, l := range core {
		i, ok := guardIndex[l]
		if !ok || !ns.active[i] {
			continue
		}
		ns.coreHits[i]++
		if victim == -1 {
			victim = i
			continue
		}
		si, sv := ns.support(i), ns.support(victim)
		switch {
		case si < sv:
			victim = i
		case si == sv && ns.coreHits[i] > ns.coreHits[victim]:
			victim = i
		}
	}
	if victim == -1 {
		return false
	}
	ns.active[victim] = false
	ns.dropped = append(ns.dropped, victim)
	return true
}

// noiseInfo assembles the NoiseInfo for the current retained/dropped split
// and candidate count.
func (ns *NoisySolveSession) noiseInfo(candidates int) *NoiseInfo {
	info := &NoiseInfo{
		Total:          len(ns.entries),
		Retained:       len(ns.entries) - len(ns.dropped),
		Dropped:        len(ns.dropped),
		DroppedEntries: append([]int(nil), ns.dropped...),
	}
	retainedFrac := 1.0
	if info.Total > 0 {
		retainedFrac = float64(info.Retained) / float64(info.Total)
	}
	if candidates > 0 {
		info.Confidence = retainedFrac / float64(candidates)
	}
	minRetained, maxDropped := 0.0, 0.0
	first := true
	for i := range ns.entries {
		if ns.active[i] {
			if s := ns.support(i); first || s < minRetained {
				minRetained, first = s, false
			}
		}
	}
	for _, i := range ns.dropped {
		if s := ns.support(i); s > maxDropped {
			maxDropped = s
		}
	}
	if !first {
		info.Margin = minRetained - maxDropped
	}
	return info
}

// event builds a StageSolve progress event carrying the live candidate and
// dropped-entry counts plus cumulative solver counters.
func (ns *NoisySolveSession) event(candidates int, confidence float64) Event {
	stats := ns.enc.s.Statistics()
	return Event{
		Stage:          StageSolve,
		Candidates:     candidates,
		Conflicts:      stats.Conflicts,
		Propagations:   stats.Propagations,
		LearnedClauses: stats.Learnt,
		Races:          stats.Races,
		Competitors:    stats.Competitors,
		DroppedEntries: len(ns.dropped),
		Confidence:     confidence,
	}
}

// Solve runs the drop-k relaxation loop and candidate enumeration:
//
//  1. Solve under the guards of every retained entry.
//  2. On UNSAT, retract the least-supported entry of the solver's
//     failed-assumption core and go to 1 — unless the drop budget
//     (NoisyOptions.MaxDrop) is spent, which ends the search with no codes.
//  3. On SAT, enumerate candidates exactly like the exact engine
//     (blocking clauses, MaxSolutions semantics), cross-checking every
//     model against the retained entries with the analytic oracle. The
//     drop set is frozen once the first model is found.
//
// The Result always carries a non-nil Noise block. With a clean profile
// the answer is identical to the exact path's — no entry is ever dropped
// when the system is satisfiable, so Codes matches Solve
// bit-for-bit and Confidence is 1.0 on a unique recovery.
func (ns *NoisySolveSession) Solve(ctx context.Context) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	translate := interruptFromCtx(ctx, ns.enc.s)
	maxSol := ns.opts.MaxSolutions
	if maxSol == 0 {
		maxSol = 2
	}
	maxDrop := 0
	if ns.opts.Noisy != nil {
		maxDrop = ns.opts.Noisy.MaxDrop
	}
	if maxDrop < 0 {
		maxDrop = len(ns.entries)
	}

	res := &Result{}
	exhausted := false
	fillRes := func() {
		res.Exhausted = exhausted
		res.Unique = exhausted && len(res.Codes) == 1
		res.Vars = ns.enc.s.NumVars()
		res.Clauses = ns.enc.s.NumClauses()
		res.PatternsUsed = len(ns.entries)
		res.Stats = ns.enc.s.Statistics()
		res.Noise = ns.noiseInfo(len(res.Codes))
	}

	vars := ns.enc.pVars()
	start := time.Now()
	firstFound := false
	for maxSol < 0 || len(res.Codes) < maxSol {
		if err := ctx.Err(); err != nil {
			fillRes()
			return res, err
		}
		ok, err := ns.enc.s.SolveUnderAssumptions(ns.assumptions()...)
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: noisy solve: %w", translate(err))
		}
		if !ok {
			if firstFound {
				// The retained system is exhausted under the frozen drop
				// set: enumeration is complete.
				exhausted = true
				break
			}
			core := ns.enc.s.FailedAssumptions()
			if len(ns.dropped) >= maxDrop || !ns.retractFromCore(core) {
				// Clean UNSAT: no code exists within the drop budget (or
				// independently of the entries at all).
				exhausted = true
				break
			}
			ns.opts.Progress.emit(ns.event(0, 0))
			continue
		}
		code, err := ns.enc.modelCode()
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: SAT model is not a valid code: %w", err)
		}
		if !firstFound {
			firstFound = true
			res.DetermineTime = time.Since(start)
			start = time.Now()
		}
		blocked := sat.BlockModel(ns.enc.s, vars)
		// Analytic-oracle cross-check against the retained entries; a
		// mismatch would mean the guarded encoding under-constrained the
		// model, so the candidate is discarded rather than reported.
		if ns.matchesRetained(code) {
			res.Codes = append(res.Codes, code)
			ns.opts.Progress.emit(ns.event(len(res.Codes), ns.noiseInfo(len(res.Codes)).Confidence))
		}
		if !blocked {
			exhausted = true
			break
		}
	}
	if firstFound {
		res.UniquenessTime = time.Since(start)
	} else {
		res.DetermineTime = time.Since(start)
	}
	fillRes()
	return res, nil
}

// SolveNoisy finds the ECC functions consistent with most of a
// miscorrection profile by streaming it into a fresh NoisySolveSession and
// running the drop-k relaxation (see NoisySolveSession.Solve). It is the
// noise-tolerant counterpart of Solve: with a clean profile the
// candidate set is identical and Noise.Confidence is 1.0 on a unique
// recovery; with corrupted entries the relaxation retracts UNSAT-core
// members (least-supported first, per opts.Noisy.Support) until a code is
// found, and Noise reports what was dropped and with what margin.
func SolveNoisy(ctx context.Context, profile *Profile, opts SolveOptions) (*Result, error) {
	ns, err := NewNoisySolveSession(profile.K, opts)
	if err != nil {
		return nil, err
	}
	if err := ns.Feed(profile.Entries...); err != nil {
		return nil, err
	}
	return ns.Solve(ctx)
}
