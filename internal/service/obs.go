package service

import (
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// WithObservability attaches an observability hub to the server: its
// registry backs GET /metrics, its tracer backs job spans and GET
// /debug/traces, and its logger gets the job lifecycle lines. cmd/beerd
// builds one hub per process and also wraps the server's handler in the
// hub's HTTP middleware, so one scrape sees both the request and the job
// families. The default hub (nil option) collects metrics and spans but
// logs nowhere.
func WithObservability(h *obs.Hub) Option { return func(s *Server) { s.hub = h } }

// Observability returns the server's hub (never nil after New).
func (s *Server) Observability() *obs.Hub { return s.hub }

// serverMetrics holds every instrument the service layer feeds. Families
// follow the beerd_* naming scheme documented in DESIGN.md §14: subsystem
// prefix, snake_case, _total for counters, _seconds for latency
// histograms, base units only.
type serverMetrics struct {
	jobsSubmitted *obs.CounterVec // type
	jobsCompleted *obs.CounterVec // type, state
	jobSeconds    *obs.Histogram
	stageSeconds  *obs.HistogramVec // stage: collect | solve

	progressEvents  *obs.Counter
	collectPasses   *obs.Counter
	solverConflicts *obs.Counter
	solverProps     *obs.Counter
	solverLearned   *obs.Counter
	patternsUsed    *obs.Counter

	cacheLookups *obs.Counter
	cacheHits    *obs.Counter
	dedupeHits   *obs.Counter

	noisyRecoveries *obs.Counter
	entriesDropped  *obs.Counter

	storeSeconds *obs.HistogramVec // op
	sseStreams   *obs.Counter
}

// jobLatencyBuckets widen the classic buckets: recoveries legally run for
// minutes (max_window_minutes), so the default 10s ceiling would dump
// every real job into +Inf.
var jobLatencyBuckets = []float64{.01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 300, 1800}

func newServerMetrics(s *Server) *serverMetrics {
	r := s.hub.Metrics
	m := &serverMetrics{
		jobsSubmitted: r.CounterVec("beerd_jobs_submitted_total",
			"Jobs accepted by POST /api/v1/jobs, by spec type.", "type"),
		jobsCompleted: r.CounterVec("beerd_jobs_completed_total",
			"Jobs reaching a terminal state, by spec type and final state.", "type", "state"),
		jobSeconds: r.Histogram("beerd_job_duration_seconds",
			"End-to-end job latency (start to terminal state) in seconds.", jobLatencyBuckets),
		stageSeconds: r.HistogramVec("beerd_recover_stage_seconds",
			"Per-stage recovery latency in seconds, from the finished result's timings.",
			jobLatencyBuckets, "stage"),
		progressEvents: r.Counter("beerd_progress_events_total",
			"Pipeline progress events folded into job status."),
		collectPasses: r.Counter("beerd_collect_passes_total",
			"Completed collection passes across all chips and jobs."),
		solverConflicts: r.Counter("beerd_solver_conflicts_total",
			"Cumulative SAT conflicts reported by the live progress stream."),
		solverProps: r.Counter("beerd_solver_propagations_total",
			"Cumulative SAT propagations reported by the live progress stream."),
		solverLearned: r.Counter("beerd_solver_learned_clauses_total",
			"Cumulative learnt clauses reported by the live progress stream."),
		patternsUsed: r.Counter("beerd_planner_patterns_total",
			"Test patterns collected (planned subset or full sweep)."),
		cacheLookups: r.Counter("beerd_solve_cache_lookups_total",
			"Solve-cache lookups (store registry)."),
		cacheHits: r.Counter("beerd_solve_cache_hits_total",
			"Solve-cache hits served without invoking the SAT solver."),
		dedupeHits: r.Counter("beerd_dedupe_hits_total",
			"Submissions attached to an already-executing identical job (single-flight)."),
		noisyRecoveries: r.Counter("beerd_noisy_recoveries_total",
			"Recoveries that ran the confidence-weighted drop-k solver."),
		entriesDropped: r.Counter("beerd_noise_entries_dropped_total",
			"Profile entries retracted as inconsistent by the drop-k solver."),
		storeSeconds: r.HistogramVec("beerd_store_op_seconds",
			"Store backend operation latency in seconds, by op.", nil, "op"),
		sseStreams: r.Counter("beerd_sse_streams_total",
			"Event streams opened on GET /api/v1/jobs/{id}/events."),
	}

	r.GaugeFunc("beerd_engine_workers",
		"Worker-pool width of the parallel experiment engine.",
		func() float64 { return float64(s.engine.Workers()) })
	r.GaugeFunc("beerd_engine_inflight",
		"Sharded computations executing on the engine right now.",
		func() float64 { return float64(s.engine.InFlight()) })
	r.CounterFunc("beerd_engine_runs_total",
		"Sharded computations the engine has started over its lifetime.",
		func() float64 { return float64(s.engine.Runs()) })
	r.GaugeFunc("beerd_jobs_executing",
		"Jobs currently executing (what admission control counts).",
		func() float64 { return float64(s.RunningJobs()) })
	r.GaugeFunc("beerd_draining",
		"1 while the server is draining for shutdown, else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("beerd_registry_codes",
		"Recovered-code records in the content-addressed registry.",
		func() float64 {
			keys, err := s.store.Backend().Keys(store.BucketCodes)
			if err != nil {
				return 0
			}
			return float64(len(keys))
		})
	return m
}

// observeProgress feeds the live counters with the positive deltas of one
// monotonic merge. Every progress report goes through the tracker, so the
// counters stay correct across a restarted attempt: the merge already
// guarantees the "after" snapshot never steps back, and Counter.Add drops
// the negative deltas a defensive caller might still produce.
func (m *serverMetrics) observeProgress(before, after ProgressStatus) {
	m.progressEvents.Add(after.Updates - before.Updates)
	m.collectPasses.Add(after.Collect.Count - before.Collect.Count)
	m.solverConflicts.Add(after.Solver.Conflicts - before.Solver.Conflicts)
	m.solverProps.Add(after.Solver.Propagations - before.Solver.Propagations)
	m.solverLearned.Add(after.Solver.Learned - before.Solver.Learned)
	m.patternsUsed.Add(int64(after.Solver.PatternsUsed - before.Solver.PatternsUsed))
	m.entriesDropped.Add(after.Solver.EntriesDropped - before.Solver.EntriesDropped)
}

// observeFinished records one terminal job: completion counters, duration,
// and — for successful recoveries — the per-stage latency histograms and
// the noisy-recovery count from the result.
func (m *serverMetrics) observeFinished(jobType string, state State, started, finished time.Time, result *JobResult) {
	if jobType == "" {
		jobType = "unknown"
	}
	m.jobsCompleted.With(jobType, string(state)).Inc()
	if !started.IsZero() && finished.After(started) {
		m.jobSeconds.Observe(finished.Sub(started).Seconds())
	}
	if result == nil || result.Recover == nil {
		return
	}
	rec := result.Recover
	m.stageSeconds.With("collect").Observe(rec.CollectMS / 1e3)
	m.stageSeconds.With("solve").Observe(rec.SolveMS / 1e3)
	if rec.Noise != nil {
		m.noisyRecoveries.Inc()
	}
}
