package core

import (
	"context"
	"fmt"
	"time"
)

// This file implements the adaptive pattern planner: the collect↔solve
// feedback loop the paper's BEEP section (§7) hints at, applied to BEER
// itself. Instead of exhaustively sweeping the whole pattern family (§5.2)
// and solving once, the planner collects patterns in small batches, feeds
// each batch's constraints to a persistent solveSession, and stops
// collecting the moment the ECC function is uniquely determined (or a
// budget is hit). Because most of a profile's constraint power sits in a
// small pattern subset, a planned run usually ends after a fraction of the
// full sweep — and every skipped pattern is a skipped set of refresh-pause
// experiment passes, the dominant real-hardware cost.

// PlanOptions tunes the adaptive pattern planner.
type PlanOptions struct {
	// Batch is how many patterns each collection increment requests after
	// the opening batch (the full 1-CHARGED family). Zero picks
	// max(4, k/2).
	Batch int
	// MaxPatterns caps the total patterns the planner may collect
	// (0 = the whole configured family, i.e. no early budget stop).
	MaxPatterns int
}

// PlanInfo summarizes a planned recovery for reports and result JSON.
type PlanInfo struct {
	// PatternsUsed counts patterns actually collected and fed to the
	// solver; PatternsFull is what the exhaustive sweep would have used.
	PatternsUsed, PatternsFull int
	// Batches counts collection increments.
	Batches int
	// DecidedEarly is true when the planner stopped because the solver
	// proved the answer (unique code, or proven-inconsistent profile)
	// before exhausting the pattern family.
	DecidedEarly bool
}

// planner interleaves miscorrection-profile collection with incremental
// solving. Drive it either through Run (give it a collect callback) or
// manually: NextBatch → collect those patterns → Feed the counts → repeat
// until Done. One persistent solveSession spans the whole run, so each
// Feed re-solves an already-hot solver with all learned clauses intact.
//
// A planner is single-goroutine; multi-chip runs parallelize inside the
// collect callback (Recover fans each batch out across chips and merges
// the counts), which is what lets a fleet-wide collection
// short-circuit the moment any batch decides the code.
type planner struct {
	opts    RecoverOptions
	k       int
	session *solveSession

	remaining []Pattern
	full      int
	batchSize int
	budget    int

	used    int
	batches int
	counts  *Counts
	last    *Result
	decided bool

	collectTime, solveTime time.Duration
}

// newPlanner builds a planner for dataword length k over the pattern
// family and solver configuration in opts. The planner needs uniqueness to
// be observable, so it refuses solver configurations that stop at the
// first candidate (MaxSolutions == 1).
func newPlanner(k int, opts RecoverOptions) (*planner, error) {
	if opts.Solve.MaxSolutions == 1 {
		return nil, fmt.Errorf("core: planner needs MaxSolutions != 1 to observe uniqueness")
	}
	patterns := opts.PatternSet.Patterns(k)
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: empty pattern family")
	}
	p := &planner{
		opts:      opts,
		k:         k,
		remaining: patterns,
		full:      len(patterns),
		batchSize: opts.Plan.Batch,
		budget:    opts.Plan.MaxPatterns,
	}
	if p.batchSize <= 0 {
		p.batchSize = max(4, k/2)
	}
	if p.budget <= 0 || p.budget > p.full {
		p.budget = p.full
	}
	solveOpts := opts.Solve
	prog := solveOpts.Progress
	if prog == nil {
		prog = opts.Progress
	}
	if prog != nil {
		// Stamp solver events with planner progress so consumers (beerd
		// status and its SSE stream) see patterns-used against
		// the full-sweep total alongside the live candidate bound.
		inner := prog
		solveOpts.Progress = func(ev Event) {
			ev.PatternsUsed = p.used
			ev.PatternsPlanned = p.full
			inner(ev)
		}
	}
	session, err := newSolveSession(k, solveOpts)
	if err != nil {
		return nil, err
	}
	p.session = session
	return p, nil
}

// Done reports whether planning is finished: the solver decided the
// answer, the pattern family is exhausted, or the budget is spent.
func (p *planner) Done() bool {
	return p.decided || len(p.remaining) == 0 || p.used >= p.budget
}

// NextBatch selects the patterns the next collection increment should
// test and consumes them from the family. The opening batch is the
// leading 1-CHARGED run (the paper's highest-information patterns); later
// batches are solver-guided: patterns on which the currently known
// candidate codes disagree come first, since each such pattern is
// guaranteed to eliminate at least one candidate. Returns nil when Done.
func (p *planner) NextBatch() []Pattern {
	if p.Done() {
		return nil
	}
	limit := min(p.budget-p.used, len(p.remaining))
	var take int
	if p.used == 0 {
		// Opening batch: the leading run of weight-<=1 patterns, or a
		// plain chunk when the family starts with heavier patterns.
		for take < limit && p.remaining[take].weight() <= 1 {
			take++
		}
		if take == 0 {
			take = min(p.batchSize, limit)
		}
		batch := append([]Pattern(nil), p.remaining[:take]...)
		p.remaining = p.remaining[take:]
		p.used += len(batch)
		return batch
	}

	size := min(p.batchSize, limit)
	order := p.discriminatingOrder()
	batch := make([]Pattern, 0, size)
	picked := make(map[int]bool, size)
	for _, idx := range order {
		if len(batch) == size {
			break
		}
		batch = append(batch, p.remaining[idx])
		picked[idx] = true
	}
	for idx := 0; len(batch) < size; idx++ {
		if !picked[idx] {
			batch = append(batch, p.remaining[idx])
			picked[idx] = true
		}
	}
	rest := make([]Pattern, 0, len(p.remaining)-len(batch))
	for idx, pat := range p.remaining {
		if !picked[idx] {
			rest = append(rest, pat)
		}
	}
	p.remaining = rest
	p.used += len(batch)
	return batch
}

// discriminatingOrder returns indices into p.remaining of patterns on
// which the last enumeration's candidate codes disagree, in family order.
// Disagreement is computed with the analytic oracle, so steering costs no
// SAT work. With fewer than two known candidates it returns nothing and
// the caller falls back to family order.
func (p *planner) discriminatingOrder() []int {
	if p.last == nil || len(p.last.Codes) < 2 || len(p.remaining) == 0 {
		return nil
	}
	codes := p.last.Codes
	if len(codes) > 4 {
		codes = codes[:4] // bound oracle cost; any disagreeing pair suffices
	}
	ref := ExactProfile(codes[0], p.remaining)
	var order []int
	for _, code := range codes[1:] {
		prof := ExactProfile(code, p.remaining)
		for idx := range p.remaining {
			if !prof.Entries[idx].Possible.Equal(ref.Entries[idx].Possible) {
				order = append(order, idx)
			}
		}
		if order != nil {
			break // one disagreeing candidate is enough to make progress
		}
	}
	return order
}

// Feed thresholds a batch's raw counts (§5.2), streams the resulting
// entries into the persistent solve session and re-enumerates. It returns
// the current Result; once it reports Unique (or a proven-inconsistent
// profile), Done becomes true and collection stops.
func (p *planner) Feed(ctx context.Context, counts *Counts) (*Result, error) {
	start := time.Now()
	defer func() { p.solveTime += time.Since(start) }()
	p.batches++
	if p.counts == nil {
		p.counts = &Counts{K: counts.K}
	}
	p.counts.Entries = append(p.counts.Entries, counts.Entries...)
	prof := counts.Threshold(p.opts.ThresholdFraction, p.opts.ThresholdMinCount)
	if err := p.session.Feed(prof.Entries...); err != nil {
		return nil, err
	}
	res, err := p.session.Enumerate(ctx)
	if err != nil {
		return res, err
	}
	p.last = res
	if res.Exhausted && len(res.Codes) <= 1 {
		p.decided = true
	}
	return res, nil
}

// Run drives the whole collect↔solve loop: request a batch, collect it via
// the callback, feed the counts, until Done. The callback runs the actual
// experiment (single chip, or Recover's fan-out over a fleet) and
// must honor ctx. Returns the final enumeration result.
func (p *planner) Run(ctx context.Context, collect func(ctx context.Context, patterns []Pattern) (*Counts, error)) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	for !p.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := p.NextBatch()
		if len(batch) == 0 {
			break
		}
		start := time.Now()
		counts, err := collect(ctx, batch)
		p.collectTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		if _, err := p.Feed(ctx, counts); err != nil {
			return nil, err
		}
	}
	if p.last == nil {
		return nil, fmt.Errorf("core: planner collected no patterns")
	}
	return p.last, nil
}

// Counts returns the accumulated raw observations across all batches.
func (p *planner) Counts() *Counts { return p.counts }

// Profile returns the thresholded profile fed to the solver so far.
func (p *planner) Profile() *Profile { return p.session.Profile() }

// Times reports how long the run spent collecting vs. solving.
func (p *planner) Times() (collect, solve time.Duration) { return p.collectTime, p.solveTime }

// Info summarizes the plan for reports.
func (p *planner) Info() PlanInfo {
	return PlanInfo{
		PatternsUsed: p.used,
		PatternsFull: p.full,
		Batches:      p.batches,
		DecidedEarly: p.decided && p.used < p.full,
	}
}
