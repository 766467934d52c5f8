package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/sat"
)

// This file is the solve engine behind Solve (and with it every recovery
// path, exact or noisy) and the Planner. One SolveSession owns one SAT
// backend for its whole life: profile entries stream in (Feed), the
// uniqueness blocking-clause loop and every pattern-increment re-solve run
// on the same solver instance, so learned clauses — the expensive part of
// CDCL search — are never thrown away. That is what makes
// solve-while-you-collect planning affordable: each new batch of patterns
// re-solves an already hot solver instead of rebuilding the CNF from
// scratch. With SolveOptions.Noisy set the session runs in guarded mode,
// the drop-k relaxation of noisy.go.

// SolveSession is a persistent incremental search for the ECC functions
// consistent with a growing miscorrection profile. Entries stream in via
// Feed; Enumerate (re-)runs candidate enumeration and may be called again
// after more Feeds — constraints only ever grow, so models found earlier
// stay blocked in the solver and are re-validated against the newer entries
// with the cheap analytic oracle instead of more SAT work.
//
// With opts.Noisy set the session runs in guarded mode (see noisy.go):
// every entry is encoded at Feed behind its own guard literal, and before
// the first model Enumerate may retract entries of the solver's UNSAT core.
//
// A session is single-goroutine, like the backend it owns.
type SolveSession struct {
	opts SolveOptions
	k, r int
	enc  *encoder
	// eager encodes every fed entry immediately (SolveEager only).
	eager bool

	entries []Entry // every entry fed, in order (added or deferred)
	pending []Entry // deferred multi-CHARGED entries not yet encoded
	added   int     // entries encoded into the CNF

	// Guarded mode only, aligned with entries: each entry's guard literal
	// and whether it is still assumed (retained), how often it appeared in
	// an UNSAT core, and the retracted entries in retraction order.
	guards   []sat.Lit
	active   []bool
	coreHits []int
	dropped  []int

	// found holds every model the solver ever produced (each blocked
	// immediately); candidates during Enumerate are the subset still
	// consistent with all retained fed entries.
	found       []*ecc.Code
	exhausted   bool
	refinements int
}

// NewSolveSession builds an empty session for dataword length k. The
// backend (opts.Backend, default in-process CDCL) is created once here and
// lives as long as the session. opts.Noisy selects guarded mode, and its
// Timeout then bounds every SAT call.
func NewSolveSession(k int, opts SolveOptions) (*SolveSession, error) {
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
	return &SolveSession{opts: opts, k: k, r: r, enc: enc}, nil
}

// guarded reports whether the session runs the drop-k relaxation.
func (ss *SolveSession) guarded() bool { return ss.opts.Noisy != nil }

// Feed streams profile entries into the session. 1-CHARGED entries are
// encoded immediately; multi-CHARGED entries are deferred and materialized
// only when a candidate model violates them (counterexample-guided
// refinement) — most never are. In guarded mode every entry is encoded
// immediately behind a fresh guard literal: a retractable entry has to be
// in the CNF.
func (ss *SolveSession) Feed(entries ...Entry) error {
	for _, entry := range entries {
		if entry.Possible.Len() != ss.k {
			return fmt.Errorf("core: entry %v has %d bits, profile has k=%d",
				entry.Pattern, entry.Possible.Len(), ss.k)
		}
		switch {
		case ss.guarded():
			g := sat.PosLit(ss.enc.s.NewVar())
			ss.enc.setGuard(g)
			ss.enc.addEntry(entry)
			ss.enc.clearGuard()
			ss.added++
			ss.guards = append(ss.guards, g)
			ss.active = append(ss.active, true)
			ss.coreHits = append(ss.coreHits, 0)
		case ss.eager || entry.Pattern.Weight() <= 1:
			ss.enc.addEntry(entry)
			ss.added++
		default:
			ss.pending = append(ss.pending, entry)
		}
		ss.entries = append(ss.entries, entry)
	}
	return nil
}

// EntriesFed returns how many profile entries the session has received.
func (ss *SolveSession) EntriesFed() int { return len(ss.entries) }

// Profile returns the profile fed so far (entries in arrival order).
func (ss *SolveSession) Profile() *Profile {
	return &Profile{K: ss.k, Entries: append([]Entry(nil), ss.entries...)}
}

// Stats returns the backend's cumulative solver counters.
func (ss *SolveSession) Stats() sat.Stats { return ss.enc.s.Statistics() }

// matches reports whether a candidate code's exact profile agrees with
// every retained entry fed so far — the analytic-oracle filter that
// revalidates previously found models after new entries arrive, with zero
// SAT work. Dropped entries are not consulted: they are the presumed
// observation errors.
func (ss *SolveSession) matches(code *ecc.Code) bool {
	for i, entry := range ss.entries {
		if ss.guarded() && !ss.active[i] {
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

// refine oracle-checks a candidate against the deferred entries and encodes
// the violated ones (a few at a time; more are often implied). It returns
// how many entries were materialized; zero means the candidate survives.
func (ss *SolveSession) refine(code *ecc.Code) int {
	violated := 0
	keep := ss.pending[:0]
	for _, entry := range ss.pending {
		if violated >= 8 { // add a few at a time; more may be implied
			keep = append(keep, entry)
			continue
		}
		oracle := ExactProfile
		if entry.Anti {
			oracle = ExactProfileAnti
		}
		got := oracle(code, []Pattern{entry.Pattern}).Entries[0].Possible
		if got.Equal(entry.Possible) {
			keep = append(keep, entry)
			continue
		}
		ss.enc.addEntry(entry)
		ss.added++
		violated++
		ss.refinements++
	}
	ss.pending = keep
	return violated
}

// event builds a StageSolve progress event carrying the live candidate
// bound and the session's cumulative solver counters; in guarded mode also
// the dropped-entry count and the confidence in the candidates so far.
// LearnedClauses is the cumulative Stats.Learnt — not the live
// clause-database size, which reduceDB shrinks — so the field is genuinely
// monotonic and agrees with the result/healthz counter of the same name.
func (ss *SolveSession) event(candidates int) Event {
	stats := ss.enc.s.Statistics()
	ev := Event{
		Stage:          StageSolve,
		Candidates:     candidates,
		Conflicts:      stats.Conflicts,
		Propagations:   stats.Propagations,
		LearnedClauses: stats.Learnt,
	}
	if ss.guarded() {
		ev.DroppedEntries = len(ss.dropped)
		ev.Confidence = ss.confidence(candidates)
	}
	return ev
}

// search runs one SAT call: plain in exact mode, under the retained
// entries' guards in guarded mode.
func (ss *SolveSession) search() (bool, error) {
	if !ss.guarded() {
		return ss.enc.s.Solve()
	}
	return ss.enc.s.SolveUnderAssumptions(ss.assumptions()...)
}

// Enumerate (re-)runs candidate enumeration against everything fed so far
// and returns the current Result. The live candidate set is the
// oracle-filtered survivors of all models ever found plus whatever further
// models the persistent solver produces, up to opts.MaxSolutions (0 means
// 2 — enough to answer "unique or not"; negative means unlimited).
// Result.Unique is true once the solver has exhausted the search space with
// exactly one survivor. Enumerate may be called again after more Feeds;
// cancelling ctx interrupts the SAT search at its next conflict, restart or
// 64th decision — and the refinement loop between re-solves — returning
// ctx.Err().
//
// In guarded mode an UNSAT answer before the session's first model
// retracts one entry of the failed-assumption core and searches again,
// within NoisyOptions.MaxDrop; once a model is found the drop set is
// frozen and UNSAT means the search is exhausted. Each model is blocked,
// then checked by the oracle against the retained entries, and the Result
// carries Noise. With a clean profile nothing is dropped, so the candidate
// set is the exact mode's and Noise.Confidence is 1.0 on a unique recovery.
func (ss *SolveSession) Enumerate(ctx context.Context) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	translate := interruptFromCtx(ctx, ss.enc.s)
	maxSol := ss.opts.MaxSolutions
	if maxSol == 0 {
		maxSol = 2
	}

	res := &Result{}
	fillRes := func() {
		res.Exhausted = ss.exhausted
		res.Unique = ss.exhausted && len(res.Codes) == 1
		res.Vars = ss.enc.s.NumVars()
		res.Clauses = ss.enc.s.NumClauses()
		res.PatternsUsed = ss.added
		res.PatternsSkipped = len(ss.pending)
		res.LazyRefinements = ss.refinements
		res.Stats = ss.enc.s.Statistics()
		if ss.guarded() {
			res.Noise = ss.noiseInfo(len(res.Codes))
		}
	}

	// Revalidate earlier finds against the retained entries (new ones may
	// have arrived since they were enumerated).
	for _, code := range ss.found {
		if ss.matches(code) {
			res.Codes = append(res.Codes, code)
		}
	}

	vars := ss.enc.pVars()
	start := time.Now()
	firstFound := len(res.Codes) > 0
	for maxSol < 0 || len(res.Codes) < maxSol {
		// Bound cancellation latency between refinement re-solves too: a
		// run of cheap oracle-refuted candidates must still observe ctx.
		if err := ctx.Err(); err != nil {
			fillRes()
			return res, err
		}
		if ss.exhausted {
			break
		}
		found, err := ss.search()
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: solve: %w", translate(err))
		}
		if !found {
			if ss.retract() {
				ss.opts.Progress.emit(ss.event(0))
				continue
			}
			ss.exhausted = true
			break
		}
		code, err := ss.enc.modelCode()
		if err != nil {
			fillRes()
			return res, fmt.Errorf("core: SAT model is not a valid code: %w", err)
		}
		// Counterexample check against the deferred entries (none in
		// guarded mode); a violated candidate is excluded by the
		// refinements themselves, so only survivors need a blocking clause.
		if ss.refine(code) > 0 {
			continue
		}
		if !firstFound {
			firstFound = true
			res.DetermineTime = time.Since(start)
			start = time.Now()
		}
		// Block immediately — not lazily on the next iteration — so the
		// session can resume enumeration cleanly after later Feeds.
		ss.found = append(ss.found, code)
		blocked := sat.BlockModel(ss.enc.s, vars)
		// In guarded mode every encoded constraint holds, so an oracle
		// mismatch on a retained entry would mean the guarded encoding
		// under-constrained the model: it is discarded, not reported.
		if !ss.guarded() || ss.matches(code) {
			res.Codes = append(res.Codes, code)
			ss.opts.Progress.emit(ss.event(len(res.Codes)))
		}
		if !blocked {
			ss.exhausted = true
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

// Solve finds the ECC functions consistent with a miscorrection profile
// (paper §5.3) — the one solve every recovery path runs. It streams the
// profile into a fresh SolveSession and enumerates candidates on the
// persistent solver: 1-CHARGED entries are encoded up front, multi-CHARGED
// entries only once a candidate model violates them, which usually leaves
// most of the profile un-encoded (Result.PatternsSkipped). With
// opts.Noisy set the session runs in guarded mode and Solve tolerates
// corrupted entries by the drop-k relaxation (see Enumerate and noisy.go).
// The Planner drives the same session directly, interleaving Feeds with
// collection. Cancelling ctx interrupts the SAT search at its next
// conflict, restart or 64th decision and returns ctx.Err().
func Solve(ctx context.Context, profile *Profile, opts SolveOptions) (*Result, error) {
	return solveProfile(ctx, profile, opts, false)
}

// SolveEager is Solve with every profile entry encoded before the first
// search. It is the reference encoding for the tests that hold Solve to
// identical candidate sets, for the ablation figure and for the satlib
// corpus generator; no recovery path calls it.
func SolveEager(ctx context.Context, profile *Profile, opts SolveOptions) (*Result, error) {
	return solveProfile(ctx, profile, opts, true)
}

func solveProfile(ctx context.Context, profile *Profile, opts SolveOptions, eager bool) (*Result, error) {
	ss, err := NewSolveSession(profile.K, opts)
	if err != nil {
		return nil, err
	}
	ss.eager = eager
	if err := ss.Feed(profile.Entries...); err != nil {
		return nil, err
	}
	return ss.Enumerate(ctx)
}
