package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// RecoverOptions configures the end-to-end BEER pipeline.
type RecoverOptions struct {
	Layout  LayoutOptions
	Collect CollectOptions
	Solve   SolveOptions
	// PatternSet selects which test-pattern family to collect. The paper's
	// recommendation: 1-CHARGED suffices for full-length codes; add the
	// 2-CHARGED patterns for shortened codes (Set12).
	PatternSet PatternSet
	// ThresholdFraction and ThresholdMinCount configure the §5.2 filter.
	ThresholdFraction float64
	ThresholdMinCount int64
	// MaxRows caps how many true-cell rows are used for collection (0 = all).
	MaxRows int
	// UseAntiRows additionally collects inverted-pattern profiles from
	// anti-cell rows (extension; see Entry.Anti). On chips that mix cell
	// types this roughly doubles the usable capacity and adds row-parity
	// information the true-cell profile cannot express.
	UseAntiRows bool
	// UsePlanner replaces the exhaustive pattern sweep with the adaptive
	// planner (see Planner): collection proceeds in batches that feed a
	// persistent incremental solver, and stops the moment the ECC function
	// is uniquely determined or the Plan budget is hit. Recover rejects it
	// combined with UseAntiRows (the planner schedules true-cell patterns
	// only) and with noisy solving (Solve.Noisy or PerturbProfile).
	UsePlanner bool
	// Plan tunes the adaptive planner (batch size, pattern budget).
	Plan PlanOptions
	// SolveCache, when set, short-circuits the solve stage: a profile whose
	// canonical hash (Profile.Hash) was solved before replays the cached
	// Result with zero SAT invocations, and fresh successful solves are
	// offered back to the cache. See the SolveCache interface contract.
	// Noisy solves (Solve.Noisy) bypass the cache entirely: its key is the
	// profile alone, but a noisy result also depends on the drop budget and
	// support scores.
	SolveCache SolveCache
	// DiscoveryCache, when set, memoizes the §5.1 discovery stage across
	// recoveries of identically-configured chips: a chip exposing LayoutKey
	// (the LayoutKeyer extension) whose key plus discovery options were seen
	// before reuses the cached cell classes, row list and word layout without
	// touching the chip. Discovery's outcome is a pure function of the key,
	// but skipping its reads does advance the chip's read history differently,
	// so collected raw counts can differ from an uncached run at the VRT-noise
	// level — exactly the noise the §5.2 threshold filter rejects. Serving
	// paths opt in (beerd); CLIs and tests run uncached by default.
	DiscoveryCache DiscoveryCache
	// PerturbProfile, when set, transforms the thresholded profile before
	// the solve stage — the injection point for probabilistic observation
	// models (internal/noise installs per-bit Bernoulli FP-injection /
	// TP-dropout perturbation here). Recover applies it after count
	// merging and thresholding; Recover rejects it with UsePlanner (the
	// planner's solver consumes entries as collected).
	PerturbProfile func(*Profile) *Profile
	// Progress, when set, receives pipeline events: stage entries and
	// completions, per-(round, window) collection passes, and solver
	// candidate counts. See ProgressFunc for the concurrency contract.
	Progress ProgressFunc
}

// DefaultRecoverOptions mirrors the paper's experimental configuration.
func DefaultRecoverOptions() RecoverOptions {
	return RecoverOptions{
		Layout:            DefaultLayoutOptions(),
		Collect:           DefaultCollectOptions(),
		PatternSet:        Set12,
		ThresholdFraction: 1e-4,
		ThresholdMinCount: 2,
	}
}

// Report is the full output of a BEER run against a chip.
type Report struct {
	// CellClasses is the discovered per-row cell layout (§5.1.1).
	CellClasses [][]CellClass
	// Layout is the discovered dataword layout (§5.1.2).
	Layout WordLayout
	// K is the discovered dataword length in bits.
	K int
	// Counts are the raw observations; Profile the thresholded profile.
	Counts  *Counts
	Profile *Profile
	// Result holds the recovered ECC function(s).
	Result *Result
	// Plan summarizes the adaptive planner's run (patterns used vs. the
	// full sweep); nil for exhaustive-sweep recoveries.
	Plan *PlanInfo
	// Timing of the three steps. DiscoveryTime is the discovery phase's
	// wall time. CollectTime is the collect phase's wall time, or the
	// planner's summed batch-collect time. SolveTime is the solve time (the
	// planner's summed batch-solve time on planned runs).
	DiscoveryTime, CollectTime, SolveTime time.Duration
}

// ForEachFunc runs fn(0..n-1), possibly concurrently, and returns once every
// call has finished. Its contract is parallel.Engine.ForEach's: every index
// runs even when some fail, the error returned is the lowest failing
// index's, and cancelling ctx stops further indices and yields ctx.Err().
type ForEachFunc func(ctx context.Context, n int, fn func(i int) error) error

// serialForEach is the ForEachFunc Recover uses when it is given none.
func serialForEach(ctx context.Context, n int, fn func(i int) error) error {
	var firstErr error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// Recover runs the complete BEER methodology (paper §5) against one or more
// chips of the same model: discover every chip's cell and word layout,
// collect a miscorrection profile with crafted test patterns, threshold it,
// and solve for the ECC function. Same-model chips share an ECC function, so
// their counts add before the one solve (§6.3). With UsePlanner the planner
// drives collection batch by batch and stops at uniqueness (see Planner).
//
// The run has two fan-out phases, each one forEach call with one task per
// chip (nil forEach runs the tasks serially). The discovery phase finishes
// on every chip, and every chip must discover chip 0's word layout, before
// any chip collects: counts collected under different layouts refer to
// different physical bits. The collect phase runs each sweep on every chip
// and merges the counts in chip order, so the result is the same for any
// forEach. Each chip sees the same reads in the same order either way: its
// discovery, then its collection sweeps. The report's discovery fields come
// from chip 0.
//
// Progress events (opts.Progress) from the two phases are stamped with the
// chip index and serialized: the callback never runs concurrently with
// itself for one Recover call. Each chip sends one discover-Done and one
// collect-Done event; the run ends with one solve-Done event.
//
// Cancelling ctx returns ctx.Err() within one collection pass (the refresh
// pauses dominate real experiments) or at the solver's next conflict/restart.
func Recover(ctx context.Context, chips []Chip, opts RecoverOptions, forEach ForEachFunc) (*Report, error) {
	ctx = ctxOrBackground(ctx)
	if len(chips) == 0 {
		return nil, fmt.Errorf("core: no chips")
	}
	if opts.UsePlanner && opts.UseAntiRows {
		return nil, fmt.Errorf("core: the adaptive planner does not support anti-cell collection")
	}
	if opts.UsePlanner && (opts.Solve.Noisy != nil || opts.PerturbProfile != nil) {
		return nil, fmt.Errorf("core: the adaptive planner does not support noisy solving or profile perturbation")
	}
	if forEach == nil {
		forEach = serialForEach
	}
	f := &fleet{chips: chips, opts: opts, forEach: forEach}
	rep := &Report{}
	if err := f.discover(ctx, rep); err != nil {
		return rep, err
	}

	collectOpts := opts.Collect
	if collectOpts.Progress == nil {
		collectOpts.Progress = opts.Progress
	}
	var res *Result
	var err error
	if opts.UsePlanner {
		res, err = f.plan(ctx, rep, collectOpts)
	} else {
		res, err = f.sweepAndSolve(ctx, rep, collectOpts)
	}
	if err != nil {
		return rep, err
	}
	rep.Result = res
	done := Event{
		Stage: StageSolve, Candidates: len(res.Codes), Done: true,
		Conflicts: res.Stats.Conflicts, Propagations: res.Stats.Propagations,
	}
	if rep.Plan != nil {
		done.PatternsUsed, done.PatternsPlanned = rep.Plan.PatternsUsed, rep.Plan.PatternsFull
	}
	opts.Progress.emit(done)
	return rep, nil
}

// fleet is the state of one Recover run: the chips, the rows each one
// collects from, and their chip-stamped progress streams.
type fleet struct {
	chips   []Chip
	opts    RecoverOptions
	forEach ForEachFunc
	layout  WordLayout
	// rows and anti hold each chip's true-cell and anti-cell collection
	// rows (anti only with UseAntiRows), capped at MaxRows.
	rows, anti [][]RowRef
	// passes counts each chip's collection passes in earlier sweeps.
	passes []int
	mu     sync.Mutex // serializes progress events across chips
}

// stamp returns fn stamped with chip i and serialized with the other
// chips' events; nil when fn is nil.
func (f *fleet) stamp(fn ProgressFunc, i int) ProgressFunc {
	if fn == nil {
		return nil
	}
	return func(ev Event) {
		ev.Chip = i
		f.mu.Lock()
		defer f.mu.Unlock()
		fn(ev)
	}
}

// chipErr names the failing chip in multi-chip runs.
func (f *fleet) chipErr(i int, err error) error {
	if len(f.chips) == 1 {
		return err
	}
	return fmt.Errorf("chip %d: %w", i, err)
}

// discover is the discovery phase: every chip's §5.1 discovery, then the
// check that all chips share chip 0's word layout.
func (f *fleet) discover(ctx context.Context, rep *Report) error {
	n := len(f.chips)
	classes := make([][][]CellClass, n)
	layouts := make([]WordLayout, n)
	f.rows = make([][]RowRef, n)
	f.passes = make([]int, n)
	start := time.Now()
	err := f.forEach(ctx, n, func(i int) error {
		progress := f.stamp(f.opts.Progress, i)
		progress.emit(Event{Stage: StageDiscover})
		var err error
		classes[i], f.rows[i], layouts[i], err = discoverChip(f.chips[i], f.opts)
		if err != nil {
			return f.chipErr(i, err)
		}
		progress.emit(Event{Stage: StageDiscover, Done: true})
		return nil
	})
	rep.DiscoveryTime = time.Since(start)
	rep.CellClasses = classes[0]
	if err != nil {
		return err
	}
	f.layout = layouts[0]
	rep.Layout, rep.K = f.layout, f.layout.K()
	for i, l := range layouts[1:] {
		if !l.Equal(f.layout) {
			return fmt.Errorf("core: chip %d discovered a different word layout than chip 0 (different models?)", i+1)
		}
	}
	if f.opts.UseAntiRows {
		f.anti = make([][]RowRef, n)
		for i := range f.anti {
			f.anti[i] = AntiRows(classes[i])
			if f.opts.MaxRows > 0 && len(f.anti[i]) > f.opts.MaxRows {
				f.anti[i] = f.anti[i][:f.opts.MaxRows]
			}
		}
	}
	return nil
}

// sweep is one collect fan-out: every chip with rows collects patterns
// over them, and the counts merge in chip order (§6.3: same-model chips'
// counts add). It returns nil counts when no chip has rows.
//
// CollectCounts restarts its pass counters at 1 every sweep, so each
// chip's events are offset by the passes of its earlier sweeps: Pass stays
// monotonic across the run and never exceeds Passes, whose total revises
// upward sweep by sweep.
func (f *fleet) sweep(ctx context.Context, rows [][]RowRef, patterns []Pattern, opts CollectOptions) (*Counts, error) {
	counts := make([]*Counts, len(f.chips))
	err := f.forEach(ctx, len(f.chips), func(i int) error {
		if len(rows[i]) == 0 {
			return nil
		}
		chipOpts := opts
		offset := f.passes[i]
		f.passes[i] += sweepPasses(opts)
		if progress := f.stamp(opts.Progress, i); progress != nil {
			chipOpts.Progress = func(ev Event) {
				ev.Pass += offset
				ev.Passes += offset
				progress(ev)
			}
		}
		c, err := CollectCounts(ctx, f.chips[i], rows[i], f.layout, patterns, chipOpts)
		if err != nil {
			return f.chipErr(i, err)
		}
		counts[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged *Counts
	for _, c := range counts {
		switch {
		case c == nil:
		case merged == nil:
			merged = c
		default:
			if err := merged.Merge(c); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// collectDone reports every chip's collection finished.
func (f *fleet) collectDone() {
	for i := range f.chips {
		f.stamp(f.opts.Progress, i).emit(Event{Stage: StageCollect, Done: true})
	}
}

// sweepAndSolve is the exhaustive path: sweep the whole pattern family
// (plus the anti-cell sweep), threshold, perturb, and solve once.
func (f *fleet) sweepAndSolve(ctx context.Context, rep *Report, collectOpts CollectOptions) (*Result, error) {
	start := time.Now()
	counts, err := f.sweep(ctx, f.rows, f.opts.PatternSet.Patterns(rep.K), collectOpts)
	if err != nil {
		return nil, fmt.Errorf("core: collect: %w", err)
	}
	rep.Counts = counts
	var anti *Counts
	if f.opts.UseAntiRows {
		antiOpts := collectOpts
		antiOpts.Invert = true
		// Anti regions contribute the 1-CHARGED patterns only: those
		// carry the extra row-parity information, and the much smaller
		// pattern count keeps per-pattern sample density high enough
		// that no rare miscorrection goes unobserved (a missed
		// observation would add a false "impossible" constraint, §5.2).
		anti, err = f.sweep(ctx, f.anti, OneCharged(rep.K), antiOpts)
		if err != nil {
			return nil, fmt.Errorf("core: anti-cell collect: %w", err)
		}
	}
	rep.CollectTime = time.Since(start)
	f.collectDone()

	opts := f.opts
	rep.Profile = counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
	if anti != nil {
		rep.Profile = rep.Profile.Append(anti.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount))
	}
	if opts.PerturbProfile != nil {
		rep.Profile = opts.PerturbProfile(rep.Profile)
	}
	start = time.Now()
	res, err := SolveStage(ctx, rep.Profile, opts)
	rep.SolveTime = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("core: solve: %w", err)
	}
	return res, nil
}

// plan is the planned path: the planner requests pattern batches, each one
// a sweep across the fleet, and feeds their merged counts to its
// persistent solver until the code is decided (or the budget is spent).
// The SolveCache receives the final result; a lookup is impossible because
// the profile is not known until collected.
func (f *fleet) plan(ctx context.Context, rep *Report, collectOpts CollectOptions) (*Result, error) {
	planner, err := NewPlanner(rep.K, f.opts)
	if err != nil {
		return nil, err
	}
	res, err := planner.Run(ctx, func(ctx context.Context, patterns []Pattern) (*Counts, error) {
		return f.sweep(ctx, f.rows, patterns, collectOpts)
	})
	rep.Counts = planner.Counts()
	rep.Profile = planner.Profile()
	info := planner.Info()
	rep.Plan = &info
	rep.CollectTime, rep.SolveTime = planner.Times()
	if err != nil {
		return nil, fmt.Errorf("core: planned recovery: %w", err)
	}
	f.collectDone()
	if f.opts.SolveCache != nil {
		f.opts.SolveCache.Store(rep.Profile, res)
	}
	return res, nil
}

// discoverChip runs the §5.1.1-5.1.2 discovery steps against one chip:
// classify every row's cell polarity, then group region bytes into ECC
// datawords over the (MaxRows-capped) true-cell rows.
func discoverChip(chip Chip, opts RecoverOptions) (classes [][]CellClass, rows []RowRef, layout WordLayout, err error) {
	var cacheKey string
	if opts.DiscoveryCache != nil {
		if lk, ok := chip.(LayoutKeyer); ok {
			if ck := lk.LayoutKey(); ck != "" {
				cacheKey = fmt.Sprintf("%s|layout=%+v|maxrows=%d", ck, opts.Layout, opts.MaxRows)
				if d, ok := opts.DiscoveryCache.Lookup(cacheKey); ok {
					return d.CellClasses, d.Rows, d.Layout, nil
				}
			}
		}
	}
	classes = DiscoverCellLayout(chip, opts.Layout)
	rows = TrueRows(classes)
	if len(rows) == 0 {
		return classes, nil, WordLayout{}, fmt.Errorf("core: no true-cell rows discovered")
	}
	if opts.MaxRows > 0 && len(rows) > opts.MaxRows {
		rows = rows[:opts.MaxRows]
	}
	layout, err = DiscoverWordLayout(chip, rows, opts.Layout)
	if err != nil {
		return classes, rows, layout, fmt.Errorf("core: word layout: %w", err)
	}
	if cacheKey != "" {
		opts.DiscoveryCache.Store(cacheKey, &DiscoveredLayout{CellClasses: classes, Rows: rows, Layout: layout})
	}
	return classes, rows, layout, nil
}

// SolveStage runs the solve stage of Recover: consult the SolveCache (if
// any) for a result under the profile's canonical hash, otherwise run Solve
// and offer the result back. A cache hit replays the original Result —
// including its recorded solver timings — without any SAT invocation; the
// surrounding Report's SolveTime then measures only the lookup. Shared by
// Recover and Pipeline.Solve, so every solve takes the same path and
// single-chip and multi-chip runs hit the same registry. Noisy solves
// (Solve.Noisy) neither consult nor feed the cache: its key is the profile
// hash alone, and a noisy result also depends on the drop budget and the
// entry-support scores.
func SolveStage(ctx context.Context, profile *Profile, opts RecoverOptions) (*Result, error) {
	cache := opts.SolveCache
	if opts.Solve.Noisy != nil {
		cache = nil
	}
	if cache != nil {
		if res, ok := cache.Lookup(profile); ok {
			opts.Progress.emit(Event{Stage: StageSolve, Candidates: len(res.Codes)})
			return res, nil
		}
	}
	solveOpts := opts.Solve
	if solveOpts.Progress == nil {
		solveOpts.Progress = opts.Progress
	}
	res, err := Solve(ctx, profile, solveOpts)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		cache.Store(profile, res)
	}
	return res, nil
}

// ExperimentRuntime implements the paper's §6.3 analytical runtime model:
// total experiment time is dominated by the refresh pauses, so it is the sum
// of the tested windows times the number of rounds; chip I/O (the paper
// measures 168 ms to read a 2 GiB LPDDR4-3200 chip) is negligible besides.
func ExperimentRuntime(opts CollectOptions) time.Duration {
	var total time.Duration
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for _, w := range opts.Windows {
		total += w
	}
	return total * time.Duration(rounds)
}
