package repro

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/einsim"
	"repro/internal/parallel"
)

// Progress types, re-exported from internal/core. A ProgressFunc passed via
// WithProgress receives one ProgressEvent per stage transition, collection
// pass and solver candidate; see the core documentation for the concurrency
// contract.
type (
	// ProgressEvent is one progress report from a running pipeline.
	ProgressEvent = core.Event
	// ProgressFunc consumes pipeline progress events.
	ProgressFunc = core.ProgressFunc
	// PipelineStage identifies a pipeline phase in a ProgressEvent.
	PipelineStage = core.Stage
	// PatternSet selects a test-pattern family (WithPatternSet).
	PatternSet = core.PatternSet
)

// Pipeline stages, in execution order.
const (
	StageDiscover = core.StageDiscover
	StageCollect  = core.StageCollect
	StageSolve    = core.StageSolve
)

// Pattern families (WithPatternSet).
const (
	Set1  = core.Set1
	Set12 = core.Set12
)

// Pipeline is the configured entry point for everything long-running in this
// repository: BEER recovery (Recover), EINSim-style Monte-Carlo simulation
// (Simulate) and BEEP profiling (ProfileWord). A Pipeline is immutable after
// construction and safe for concurrent use; every run takes a
// context.Context and stops promptly — within one collection pass, one
// simulation shard, one profiled bit, or one SAT conflict — when the context
// is cancelled.
//
// Construct with NewPipeline and functional options:
//
//	pipe := repro.NewPipeline(
//		repro.WithFastWindows(),
//		repro.WithWorkers(8),
//		repro.WithProgress(func(ev repro.ProgressEvent) { ... }),
//	)
//	report, err := pipe.Recover(ctx, chips...)
type Pipeline struct {
	engine  *parallel.Engine
	recover RecoverOptions
	beep    BEEPOptions
}

// Option configures a Pipeline (functional options).
type Option func(*Pipeline)

// NewPipeline builds a Pipeline from the paper's default experimental
// configuration (core.DefaultRecoverOptions) plus the given options.
func NewPipeline(opts ...Option) *Pipeline {
	p := &Pipeline{
		recover: core.DefaultRecoverOptions(),
		beep:    beep.DefaultOptions(),
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.engine == nil {
		p.engine = parallel.Default()
	}
	return p
}

// WithEngine routes the pipeline's sharded work through a specific parallel
// experiment engine (sharing an engine between pipelines shares its worker
// pool and profile caches — what the beerd job service does).
func WithEngine(e *Engine) Option { return func(p *Pipeline) { p.engine = e } }

// WithWorkers gives the pipeline its own engine with the given worker-pool
// width (0 = all cores). Overrides WithEngine.
func WithWorkers(n int) Option { return func(p *Pipeline) { p.engine = parallel.New(n) } }

// WithPatternSet selects the test-pattern family collected during recovery.
// The paper's recommendation: Set1 suffices for full-length codes; Set12
// (the default) uniquely identifies shortened codes too.
func WithPatternSet(ps PatternSet) Option { return func(p *Pipeline) { p.recover.PatternSet = ps } }

// sweepTo builds the canonical simulated-chip window sweep: 4-minute steps
// up to maxMinutes — deep enough into the compressed retention distribution
// that thousands of words cover every possible miscorrection.
func sweepTo(maxMinutes int) []time.Duration {
	var windows []time.Duration
	for m := 4; m <= maxMinutes; m += 4 {
		windows = append(windows, time.Duration(m)*time.Minute)
	}
	return windows
}

// WithWindowSweep sets the refresh-window sweep to 4-minute steps up to
// maxMinutes — the canonical sweep for simulated chips, shared by
// WithFastWindows, cmd/beer -max-window and beerd's max_window_minutes.
func WithWindowSweep(maxMinutes int) Option {
	return func(p *Pipeline) { p.recover.Collect.Windows = sweepTo(maxMinutes) }
}

// WithRounds sets how many times the whole window sweep repeats with rotated
// pattern-to-word assignments.
func WithRounds(n int) Option { return func(p *Pipeline) { p.recover.Collect.Rounds = n } }

// WithFastWindows tunes the sweep for small simulated chips: the canonical
// sweep up to 48 minutes, three rounds.
func WithFastWindows() Option {
	return func(p *Pipeline) {
		p.recover.Collect.Windows = sweepTo(48)
		p.recover.Collect.Rounds = 3
	}
}

// WithAntiRows additionally collects inverted-pattern profiles from
// anti-cell rows (extension; see core.RecoverOptions.UseAntiRows).
func WithAntiRows() Option { return func(p *Pipeline) { p.recover.UseAntiRows = true } }

// WithPlanner replaces the exhaustive pattern sweep with the adaptive
// pattern planner: collection proceeds in solver-guided batches feeding one
// persistent incremental SAT session, and stops — fleet wide, on multi-chip
// runs — the moment the ECC function is uniquely determined. Report.Plan records patterns used vs. the full sweep.
// Incompatible with WithAntiRows.
func WithPlanner() Option { return func(p *Pipeline) { p.recover.UsePlanner = true } }

// WithPlanOptions tunes the adaptive planner (batch size, pattern budget);
// implies WithPlanner.
func WithPlanOptions(opts PlanOptions) Option {
	return func(p *Pipeline) {
		p.recover.UsePlanner = true
		p.recover.Plan = opts
	}
}

// WithSolverBackend installs a factory for the SAT backend recovery solves
// build on (one fresh backend per solve session). The default is the
// in-process CDCL engine; a factory returning sat.NewDimacs-wrapped
// backends additionally records every CNF for export to external solvers.
func WithSolverBackend(factory func() SolverBackend) Option {
	return func(p *Pipeline) { p.recover.Solve.Backend = factory }
}

// WithParityBits fixes the number of parity-check bits r the solver assumes
// (0 selects the minimum for the dataword length, as all publicly known
// on-die ECC designs use).
func WithParityBits(r int) Option {
	return func(p *Pipeline) { p.recover.Solve.ParityBits = r }
}

// WithProgress registers a callback for pipeline progress events: stage
// entered/completed, collection pass finished, solver candidate found. The
// callback must be fast and safe for concurrent use across jobs sharing it.
func WithProgress(fn ProgressFunc) Option { return func(p *Pipeline) { p.recover.Progress = fn } }

// DiscoveryCache memoizes the §5.1 discovery stage across recoveries of
// identically-configured chips (WithDiscoveryCache); build one with
// NewDiscoveryCache.
type DiscoveryCache = core.DiscoveryCache

// NewDiscoveryCache returns the standard bounded discovery cache (max <= 0
// selects the default capacity).
func NewDiscoveryCache(max int) DiscoveryCache { return core.NewDiscoveryCache(max) }

// WithDiscoveryCache installs a cache for the discovery stage: a chip whose
// layout key (a LayoutKey method — the simulated ondie.Chip has one) was
// discovered before reuses the cached cell classes, rows and word layout
// instead of re-running the §5.1 read sweeps. Share one cache across every
// pipeline a serving process builds — that is what makes repeat submissions
// of the same chip model cheap. Collected raw counts may differ from an
// uncached run at the VRT-noise level (the skipped reads advance the chip's
// read history differently); the §5.2 threshold filter absorbs exactly that
// noise, so recovered codes are unaffected.
func WithDiscoveryCache(c DiscoveryCache) Option {
	return func(p *Pipeline) { p.recover.DiscoveryCache = c }
}

// WithSolveCache installs a solver-result cache consulted between the
// threshold filter and the SAT search: a profile whose canonical hash
// (Profile.Hash) was solved before replays the cached result with zero SAT
// invocations, and fresh successful solves are offered back. The
// content-addressed store (internal/store, what beerd persists to) provides
// the standard implementation. The cache keys on the profile alone — do not
// share one across pipelines with different solver limits (see the
// SolveCache contract).
func WithSolveCache(c SolveCache) Option { return func(p *Pipeline) { p.recover.SolveCache = c } }

// WithNoiseModel perturbs the collected miscorrection profile with a
// per-bit Bernoulli observation-error model (HARP-style false-positive
// injection and true-positive dropout) before solving, and sets
// core.SolveOptions.Noisy so the solve session runs the drop-k relaxation
// in guarded mode, with an unlimited drop budget unless WithMaxDrop narrows
// it. A zero model leaves the profile untouched but still exercises the
// noisy path — useful to confirm the confidence-1.0 differential property
// on clean hardware. Recover rejects it combined with the adaptive planner
// (WithPlanner).
func WithNoiseModel(m NoiseModel) Option {
	return func(p *Pipeline) {
		p.recover.PerturbProfile = m.Perturber()
		if p.recover.Solve.Noisy == nil {
			p.recover.Solve.Noisy = &core.NoisyOptions{MaxDrop: -1}
		}
	}
}

// WithMaxDrop bounds how many profile entries the noise-tolerant solve may
// retract (core.NoisyOptions.MaxDrop): 0 permits none, negative means
// unlimited. Implies the noisy solve path even without WithNoiseModel —
// the configuration for real chips whose profiles may already be noisy.
func WithMaxDrop(k int) Option {
	return func(p *Pipeline) {
		if p.recover.Solve.Noisy == nil {
			p.recover.Solve.Noisy = &core.NoisyOptions{}
		}
		p.recover.Solve.Noisy.MaxDrop = k
	}
}

// WithBEEPOptions configures BEEP profiling (ProfileWord).
func WithBEEPOptions(opts BEEPOptions) Option { return func(p *Pipeline) { p.beep = opts } }

// RecoverOptions returns a copy of the pipeline's effective recovery
// configuration (the legacy struct form, for inspection and for
// ExperimentRuntime-style analysis).
func (p *Pipeline) RecoverOptions() RecoverOptions { return p.recover }

// Recover runs the complete BEER methodology (paper §5) against one or more
// same-model chips: discover the cell and dataword layouts, collect a
// miscorrection profile with crafted test patterns over the refresh-window
// sweep, filter it, and solve for the ECC function with the uniqueness
// check. Multiple chips fan out one-per-worker on the pipeline's engine and
// their observation counts merge before a single solve (§6.3).
//
// Cancelling ctx returns ctx.Err() within one collection round; progress is
// reported via WithProgress.
func (p *Pipeline) Recover(ctx context.Context, chips ...Chip) (*Report, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("repro: Recover needs at least one chip")
	}
	return core.Recover(ctx, chips, p.recover, p.engine.ForEach)
}

// Solve searches for every ECC function consistent with a miscorrection
// profile (paper §5.3) under the pipeline's solver configuration,
// reporting candidate counts via WithProgress. It runs the same solve stage
// as Recover, minus the solve cache.
func (p *Pipeline) Solve(ctx context.Context, profile *Profile) (*SolveResult, error) {
	opts := p.recover
	opts.SolveCache = nil
	return core.SolveStage(ctx, profile, opts)
}

// Simulate runs an EINSim-style word-level Monte-Carlo experiment sharded
// across the pipeline's engine; results are bit-identical for any worker
// count. Cancelling ctx stops at the next shard boundary.
func (p *Pipeline) Simulate(ctx context.Context, cfg einsim.Config, seed uint64) (*einsim.Result, error) {
	return p.engine.Simulate(ctx, cfg, seed)
}

// ProfileWord runs BEEP (paper §7.1) against one testable ECC word using a
// known (typically BEER-recovered) code, returning the bit-exact positions
// of the identified pre-correction error-prone cells. Cancelling ctx stops
// at the next target bit.
func (p *Pipeline) ProfileWord(ctx context.Context, code *Code, word beep.WordTester, seed uint64) (*BEEPOutcome, error) {
	prof := beep.NewProfiler(code, p.beep, rand.New(rand.NewPCG(seed, 0xBEEB)))
	return prof.Run(ctx, word)
}
