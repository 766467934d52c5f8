package core

import (
	"context"
	"fmt"
	"time"
)

// Stage identifies one phase of the BEER pipeline (paper §5). Progress
// events carry the stage so consumers — CLI status lines, the beerd job
// service — can report where a long-running recovery currently is.
type Stage int

const (
	// StageDiscover covers cell-layout (§5.1.1) and word-layout (§5.1.2)
	// discovery.
	StageDiscover Stage = iota
	// StageCollect covers miscorrection-profile collection over the refresh
	// window sweep (§5.1.3).
	StageCollect
	// StageSolve covers the SAT determine + uniqueness phases (§5.3).
	StageSolve
)

func (s Stage) String() string {
	switch s {
	case StageDiscover:
		return "discover"
	case StageCollect:
		return "collect"
	case StageSolve:
		return "solve"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Event is one progress report from a running pipeline. Events are emitted
// at stage boundaries, after every collection pass (one refresh window of
// one round), and whenever the solver finds another candidate code.
type Event struct {
	// Stage is the pipeline phase the event belongs to.
	Stage Stage
	// Chip is the index of the chip the event concerns in a multi-chip run
	// (always 0 for single-chip runs).
	Chip int
	// Round and Rounds report collection-round progress (1-based; zero
	// outside StageCollect).
	Round, Rounds int
	// Window is the refresh window of the completed collection pass.
	Window time.Duration
	// Pass and Passes count completed (round, window) collection passes
	// (1-based; Passes = Rounds * len(Windows)).
	Pass, Passes int
	// Candidates is the number of candidate codes found so far (StageSolve).
	Candidates int
	// Conflicts, Propagations and LearnedClauses snapshot the run's
	// cumulative SAT-solver counters at emission time (StageSolve events
	// from the incremental engine; zero elsewhere). Counters only grow
	// within a run — beerd folds them into its monotonic progress stream
	// and /healthz solver totals.
	Conflicts, Propagations, LearnedClauses int64
	// PatternsUsed and PatternsPlanned report adaptive-planner progress:
	// how many test patterns have been collected and fed to the solver so
	// far, out of the full family the exhaustive sweep would use (zero
	// outside planner runs).
	PatternsUsed, PatternsPlanned int
	// DroppedEntries reports noisy-recovery progress (StageSolve events
	// of a guarded-mode solve): how many profile entries the drop-k
	// relaxation has retracted so far. Monotonic within a run; zero on
	// exact solves.
	DroppedEntries int
	// Confidence is the noisy solve's current confidence in the surviving
	// candidate set, in [0, 1] (see NoiseInfo.Confidence). Zero outside
	// noisy StageSolve events.
	Confidence float64
	// Done marks the completion of the event's stage (for Chip).
	Done bool
}

// ProgressFunc consumes pipeline progress events. Recover serializes the
// events of one run, even when its chips run in parallel, but the same func
// may be shared across concurrent runs, so implementations must be safe for
// concurrent use. They must not block: events are emitted synchronously
// from the experiment hot path.
type ProgressFunc func(Event)

// emit invokes fn with ev when fn is non-nil.
func (fn ProgressFunc) emit(ev Event) {
	if fn != nil {
		fn(ev)
	}
}

// ctxOrBackground normalizes a possibly-nil context.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
