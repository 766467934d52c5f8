package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// CollectShards runs n independent miscorrection-count collectors across the
// worker pool and merges their counts in shard order via core.Counts.Merge.
// This is the paper's §6.3 parallelization: counts gathered from several
// chips (or banks) of the same model simply add. Each collector must be
// self-contained (own chip, own rows) — core.Chip implementations are
// stateful and not safe to share between shards. The merged result is
// bit-identical for any worker count because each shard's collection is
// deterministic in isolation and the merge order is fixed. Cancelling ctx
// stops scheduling further shards and returns ctx.Err().
func (e *Engine) CollectShards(ctx context.Context, n int, collect func(shard int) (*core.Counts, error)) (*core.Counts, error) {
	if n <= 0 {
		return nil, fmt.Errorf("parallel: no collection shards")
	}
	counts := make([]*core.Counts, n)
	err := e.ForEach(ctx, n, func(i int) error {
		c, err := collect(i)
		if err != nil {
			return err
		}
		counts[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := counts[0]
	for _, c := range counts[1:] {
		if err := merged.Merge(c); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// Recover runs the complete BEER methodology against several chips of the
// same model, fanning the expensive discovery and profile-collection steps
// (core.Observe) out one-chip-per-task across the worker pool and merging the
// observation counts before a single solve (§6.3: same-model chips share an
// ECC function, so their counts add). With one chip it is core.Recover with
// the same semantics. The report's DiscoveryTime is the slowest chip's
// discovery and CollectTime the rest of the parallel fan-out, so the two add
// up to the fan-out's wall time. The report's discovery fields come from
// the first chip; every chip must discover the identical word layout, since
// counts collected under different layouts refer to different physical bits.
//
// Cancelling ctx stops every chip's collection at its next pass boundary and
// interrupts an in-flight SAT solve; the error is ctx.Err(). Progress events
// (opts.Progress) are stamped with the chip index and serialized: the
// callback never runs concurrently with itself for one Recover call.
func (e *Engine) Recover(ctx context.Context, chips []core.Chip, opts core.RecoverOptions) (*core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(chips) == 0 {
		return nil, fmt.Errorf("parallel: no chips")
	}
	if opts.UsePlanner {
		return e.recoverPlanned(ctx, chips, opts)
	}
	rep := &core.Report{}

	start := time.Now()
	observations := make([]*core.ChipObservations, len(chips))
	var progressMu sync.Mutex
	progress := opts.Progress
	err := e.ForEach(ctx, len(chips), func(i int) error {
		chipOpts := opts
		if progress != nil {
			chipOpts.Progress = func(ev core.Event) {
				ev.Chip = i
				progressMu.Lock()
				defer progressMu.Unlock()
				progress(ev)
			}
		}
		obs, err := core.Observe(ctx, chips[i], chipOpts)
		if err != nil {
			return fmt.Errorf("chip %d: %w", i, err)
		}
		observations[i] = obs
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("parallel: %w", err)
	}
	fanOut := time.Since(start)
	for _, obs := range observations {
		rep.DiscoveryTime = max(rep.DiscoveryTime, obs.DiscoveryTime)
	}
	rep.CollectTime = fanOut - rep.DiscoveryTime
	rep.CellClasses = observations[0].CellClasses
	rep.Layout = observations[0].Layout
	rep.K = observations[0].Layout.K()
	for i, obs := range observations[1:] {
		if !obs.Layout.Equal(rep.Layout) {
			return rep, fmt.Errorf("parallel: chip %d discovered a different word layout than chip 0 (different models?)", i+1)
		}
	}

	counts := observations[0].Counts
	for _, obs := range observations[1:] {
		if err := counts.Merge(obs.Counts); err != nil {
			return rep, fmt.Errorf("parallel: merging counts: %w", err)
		}
	}
	var anti *core.Counts
	for _, obs := range observations {
		switch {
		case obs.AntiCounts == nil:
		case anti == nil:
			anti = obs.AntiCounts
		default:
			if err := anti.Merge(obs.AntiCounts); err != nil {
				return rep, fmt.Errorf("parallel: merging anti counts: %w", err)
			}
		}
	}
	rep.Counts = counts
	rep.Profile = counts.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount)
	if anti != nil {
		rep.Profile = rep.Profile.Append(anti.Threshold(opts.ThresholdFraction, opts.ThresholdMinCount))
	}
	if opts.PerturbProfile != nil {
		rep.Profile = opts.PerturbProfile(rep.Profile)
	}

	start = time.Now()
	// SolveStage consults opts.SolveCache first: a previously solved
	// canonical profile hash replays its Result with no SAT invocation.
	res, err := core.SolveStage(ctx, rep.Profile, opts)
	rep.SolveTime = time.Since(start)
	if err != nil {
		return rep, fmt.Errorf("parallel: solve: %w", err)
	}
	rep.Result = res
	if progress != nil {
		progress(core.Event{Stage: core.StageSolve, Candidates: len(res.Codes), Done: true})
	}
	return rep, nil
}

// recoverPlanned is the multi-chip adaptive-planner recovery behind
// Engine.Recover with RecoverOptions.UsePlanner: discovery fans out one
// chip per task, then a single core.Planner drives batched collection —
// each batch fanning out across every chip with the merged counts feeding
// the persistent incremental solver — and the whole fleet stops collecting
// the moment the code is uniquely determined (§6.3 parallelization with
// solver-in-the-loop early termination). Progress events are chip-stamped
// and serialized exactly like Recover's, with batch pass counters kept
// monotonic across the planned run.
func (e *Engine) recoverPlanned(ctx context.Context, chips []core.Chip, opts core.RecoverOptions) (*core.Report, error) {
	if opts.UseAntiRows {
		return nil, fmt.Errorf("parallel: the adaptive planner does not support anti-cell collection")
	}
	rep := &core.Report{}
	progress := opts.Progress
	var progressMu sync.Mutex
	chipProgress := func(i int) core.ProgressFunc {
		if progress == nil {
			return nil
		}
		return func(ev core.Event) {
			ev.Chip = i
			progressMu.Lock()
			defer progressMu.Unlock()
			progress(ev)
		}
	}

	start := time.Now()
	type discovery struct {
		classes [][]core.CellClass
		rows    []core.RowRef
		layout  core.WordLayout
	}
	discovered := make([]discovery, len(chips))
	err := e.ForEach(ctx, len(chips), func(i int) error {
		if fn := chipProgress(i); fn != nil {
			fn(core.Event{Stage: core.StageDiscover})
		}
		classes, rows, layout, err := core.DiscoverChip(chips[i], opts)
		if err != nil {
			return fmt.Errorf("chip %d: %w", i, err)
		}
		discovered[i] = discovery{classes: classes, rows: rows, layout: layout}
		if fn := chipProgress(i); fn != nil {
			fn(core.Event{Stage: core.StageDiscover, Done: true})
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("parallel: %w", err)
	}
	rep.CellClasses = discovered[0].classes
	rep.Layout = discovered[0].layout
	rep.K = discovered[0].layout.K()
	for i, d := range discovered[1:] {
		if !d.layout.Equal(rep.Layout) {
			return rep, fmt.Errorf("parallel: chip %d discovered a different word layout than chip 0 (different models?)", i+1)
		}
	}
	rep.DiscoveryTime = time.Since(start)

	planner, err := core.NewPlanner(rep.K, opts)
	if err != nil {
		return rep, err
	}
	collectOpts := opts.Collect
	if collectOpts.Progress == nil {
		collectOpts.Progress = opts.Progress
	}
	// One pass-offsetter per chip keeps every chip's batch pass counters
	// monotonic; the offsets advance in lockstep since every chip runs the
	// same sweep per batch. Collect events are chip-stamped and serialized
	// like Recover's.
	offsets := make([]*core.CollectPassOffset, len(chips))
	for i := range offsets {
		var stamped core.ProgressFunc
		if base := collectOpts.Progress; base != nil {
			i := i
			stamped = func(ev core.Event) {
				ev.Chip = i
				progressMu.Lock()
				defer progressMu.Unlock()
				base(ev)
			}
		}
		offsets[i] = core.NewCollectPassOffset(stamped)
	}
	res, err := planner.Run(ctx, func(ctx context.Context, patterns []core.Pattern) (*core.Counts, error) {
		batchFns := make([]core.ProgressFunc, len(chips))
		for i := range chips {
			batchFns[i] = offsets[i].Next(collectOpts)
		}
		return e.CollectShards(ctx, len(chips), func(i int) (*core.Counts, error) {
			batchOpts := collectOpts
			batchOpts.Progress = batchFns[i]
			return core.CollectCounts(ctx, chips[i], discovered[i].rows, rep.Layout, patterns, batchOpts)
		})
	})
	rep.Counts = planner.Counts()
	rep.Profile = planner.Profile()
	info := planner.Info()
	rep.Plan = &info
	rep.CollectTime, rep.SolveTime = planner.Times()
	if err != nil {
		return rep, fmt.Errorf("parallel: planned recovery: %w", err)
	}
	rep.Result = res
	if opts.SolveCache != nil {
		opts.SolveCache.Store(rep.Profile, res)
	}
	if progress != nil {
		progress(core.Event{Stage: core.StageCollect, Done: true})
		progress(core.Event{
			Stage: core.StageSolve, Candidates: len(res.Codes), Done: true,
			Conflicts: res.Stats.Conflicts, Propagations: res.Stats.Propagations,
			PatternsUsed: info.PatternsUsed, PatternsPlanned: info.PatternsFull,
		})
	}
	return rep, nil
}
