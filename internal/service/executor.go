package service

import (
	"context"
	"fmt"
	"sync"

	"repro"
	"repro/internal/obs"
)

// This file defines the seam between the beerd HTTP layer and job
// execution. The handlers, the job table, persistence and progress all talk
// to an Executor; the localExecutor runs jobs on this process's parallel
// engine, and tests and the benchmark substitute their own implementations
// (fakes, tracing wrappers) through WithExecutor.

// Executor turns validated job specs into runnable executions. The Server
// calls Prepare at submission time (its errors are 400s) and runs the
// returned Execution on the job's goroutine.
type Executor interface {
	// Prepare validates a spec and compiles it into an Execution. It must
	// not block on anything but the spec itself.
	Prepare(spec JobSpec) (Execution, error)
	// Describe renders the executor for logs and /healthz
	// ("local:8-workers").
	Describe() string
}

// Execution runs one prepared job to completion. Implementations must
// return promptly with ctx.Err() when ctx is cancelled and report progress
// through env.Report as the job advances.
type Execution func(ctx context.Context, env ExecEnv) (*JobResult, error)

// ExecEnv is the per-job environment the Server hands an Execution.
type ExecEnv struct {
	// JobID is the server-assigned job identifier.
	JobID string
	// Cache is the server's content-addressed solve cache for this job
	// (counting wrapper over the store registry). Local executions pass it
	// to the pipeline.
	Cache repro.SolveCache
	// Report publishes a progress snapshot. The server merges snapshots
	// monotonically (see progressTracker), so implementations may report
	// from restarted attempts without counters appearing to move backwards.
	Report func(ProgressStatus)
	// Trace is the job's root span context. Local executions parent their
	// stage spans on it.
	Trace obs.SpanContext
}

// localExecutor runs jobs on this process's parallel experiment engine —
// the Server's default executor. extraOpts (WithSolverOptions) are
// appended to every recovery pipeline it builds — backend selection is a
// per-process deployment choice, not part of the job spec.
type localExecutor struct {
	engine    *repro.Engine
	extraOpts []repro.Option
	// tracer records the execution's stage spans (nil-safe: a zero
	// localExecutor in tests simply traces nothing).
	tracer *obs.Tracer
}

// Describe implements Executor.
func (e localExecutor) Describe() string {
	return fmt.Sprintf("local:%d-workers", e.engine.Workers())
}

// Prepare implements Executor: validate via buildRunner and adapt the
// pipeline's event stream into ProgressStatus snapshots.
func (e localExecutor) Prepare(spec JobSpec) (Execution, error) {
	run, err := buildRunner(spec, e.extraOpts...)
	if err != nil {
		return nil, err
	}
	chips := spec.chipCount()
	return func(ctx context.Context, env ExecEnv) (*JobResult, error) {
		span := e.tracer.StartSpan(env.Trace, "local.execute")
		span.SetAttr("job_id", env.JobID)
		stages := newStageSpans(e.tracer, span.Context(), chips)
		// Fold raw pipeline events locally, snapshot after every event.
		// Events for one run are serialized (see core.Recover), so the
		// fold needs no extra ordering; the tracker behind env.Report
		// handles snapshot/read races.
		p := &progressState{chips: chips}
		fn := func(ev repro.ProgressEvent) {
			stages.observe(ev)
			p.observe(ev)
			env.Report(p.snapshot())
		}
		result, err := run(ctx, e.engine, env.Cache, fn)
		stages.finish()
		span.SetError(err)
		span.End()
		return result, err
	}, nil
}

// stageSpans opens one child span per pipeline stage on that stage's first
// event and ends it when the stage completes (discover/collect complete
// per chip; solve completes once). Events for one run are serialized, but
// finish runs on the execution goroutine after the pipeline returns, so
// the map is mutex-guarded.
type stageSpans struct {
	tracer *obs.Tracer
	parent obs.SpanContext
	chips  int

	mu   sync.Mutex
	open map[repro.PipelineStage]*obs.Span
	done map[repro.PipelineStage]int
}

func newStageSpans(tracer *obs.Tracer, parent obs.SpanContext, chips int) *stageSpans {
	return &stageSpans{
		tracer: tracer,
		parent: parent,
		chips:  max(chips, 1),
		open:   make(map[repro.PipelineStage]*obs.Span),
		done:   make(map[repro.PipelineStage]int),
	}
}

func (ss *stageSpans) observe(ev repro.ProgressEvent) {
	if ss.tracer == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sp, opened := ss.open[ev.Stage]
	if !opened && ss.done[ev.Stage] < ss.stageTotal(ev.Stage) {
		sp = ss.tracer.StartSpan(ss.parent, "stage."+ev.Stage.String())
		ss.open[ev.Stage] = sp
	}
	if !ev.Done {
		return
	}
	ss.done[ev.Stage]++
	if ss.done[ev.Stage] >= ss.stageTotal(ev.Stage) && sp != nil {
		sp.End()
		delete(ss.open, ev.Stage)
	}
}

// stageTotal is how many Done events complete a stage: one per chip for
// the per-chip stages, one for the solve.
func (ss *stageSpans) stageTotal(stage repro.PipelineStage) int {
	if stage == repro.StageSolve {
		return 1
	}
	return ss.chips
}

// finish ends any span left open by an error or cancellation mid-stage.
func (ss *stageSpans) finish() {
	if ss == nil || ss.tracer == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for stage, sp := range ss.open {
		sp.End()
		delete(ss.open, stage)
	}
}

// progressTracker holds a job's latest ProgressStatus under a monotonic
// merge: counters only grow, Done flags only set, and the stage label
// follows the freshest report. The local executor feeds it serialized
// event snapshots; any Execution may also report from a restarted attempt
// whose counters begin at zero again — the merge keeps the status poller's
// and the SSE stream's monotonicity promise either way.
type progressTracker struct {
	mu  sync.Mutex
	cur ProgressStatus
	// metrics, when set, receives the positive delta of every merge — the
	// single choke point every progress report passes through, so the live
	// Prometheus counters inherit the tracker's monotonicity for free.
	metrics *serverMetrics
}

func (t *progressTracker) update(p ProgressStatus) {
	t.mu.Lock()
	before := t.cur
	c := &t.cur
	if p.Updates >= c.Updates && p.Stage != "" {
		c.Stage = p.Stage
	}
	// Confidence follows the freshest report that carries one (it is a
	// grading, not a counter — more candidates mean less confidence, so a
	// max-merge would pin it to a stale early value).
	if p.Updates >= c.Updates && p.Solver.Confidence != 0 {
		c.Solver.Confidence = p.Solver.Confidence
	}
	c.Updates = max(c.Updates, p.Updates)
	c.Chips = max(c.Chips, p.Chips)
	mergeStage(&c.Discover, p.Discover)
	mergeStage(&c.Collect, p.Collect)
	mergeStage(&c.Solve, p.Solve)
	// Solver counters merge monotonically too, so a restarted attempt
	// never appears to un-learn clauses or un-collect patterns.
	c.Solver.Conflicts = max(c.Solver.Conflicts, p.Solver.Conflicts)
	c.Solver.Propagations = max(c.Solver.Propagations, p.Solver.Propagations)
	c.Solver.Learned = max(c.Solver.Learned, p.Solver.Learned)
	c.Solver.PatternsUsed = max(c.Solver.PatternsUsed, p.Solver.PatternsUsed)
	c.Solver.PatternsPlanned = max(c.Solver.PatternsPlanned, p.Solver.PatternsPlanned)
	c.Solver.EntriesDropped = max(c.Solver.EntriesDropped, p.Solver.EntriesDropped)
	after := t.cur
	m := t.metrics
	t.mu.Unlock()
	if m != nil {
		m.observeProgress(before, after)
	}
}

// set replaces the tracked status wholesale (replay of a terminal job).
func (t *progressTracker) set(p ProgressStatus) {
	t.mu.Lock()
	t.cur = p
	t.mu.Unlock()
}

func (t *progressTracker) snapshot() ProgressStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func mergeStage(dst *StageStatus, src StageStatus) {
	dst.Done = dst.Done || src.Done
	dst.Count = max(dst.Count, src.Count)
	dst.Total = max(dst.Total, src.Total)
}
