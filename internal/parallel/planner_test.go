package parallel

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestRecoverPlannedMultiChip runs the adaptive planner over a two-chip
// fleet: the merged batches must recover the ground-truth function
// uniquely with strictly fewer patterns than the full sweep, the result
// must be bit-identical to the exhaustive multi-chip recovery, and the
// outcome must not depend on the worker count.
func TestRecoverPlannedMultiChip(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.Collect.Rounds = 3

	full, err := core.Recover(context.Background(), []core.Chip{testChip(t, 200), testChip(t, 201)}, opts, New(2).ForEach)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Result.Unique {
		t.Fatalf("full sweep not unique (%d candidates)", len(full.Result.Codes))
	}

	opts.UsePlanner = true
	var wantH string
	for _, workers := range workerCounts {
		chips := []core.Chip{testChip(t, 200), testChip(t, 201)}
		rep, err := core.Recover(context.Background(), chips, opts, New(workers).ForEach)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Result.Unique {
			t.Fatalf("workers=%d: planned recovery not unique (%d candidates)", workers, len(rep.Result.Codes))
		}
		if rep.Plan == nil || rep.Plan.PatternsUsed >= rep.Plan.PatternsFull {
			t.Fatalf("workers=%d: plan %+v, want strictly fewer patterns than the full sweep", workers, rep.Plan)
		}
		truth := testChip(t, 200).GroundTruthCode()
		if !rep.Result.Codes[0].EquivalentTo(truth) {
			t.Fatalf("workers=%d: recovered wrong function", workers)
		}
		gotH := rep.Result.Codes[0].H().String()
		if gotH != full.Result.Codes[0].H().String() {
			t.Fatalf("workers=%d: planned code differs from full-sweep code", workers)
		}
		if wantH == "" {
			wantH = gotH
		} else if gotH != wantH {
			t.Fatalf("workers=%d: result depends on worker count", workers)
		}
	}
}

// TestRecoverPlannedProgressMonotonic: planned collection restarts the
// per-batch pass counters internally; the event stream visible to callers
// must stay monotonic per chip (Pass never decreases, never exceeds
// Passes) and carry planner solve progress (patterns used vs. planned).
func TestRecoverPlannedProgressMonotonic(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.UsePlanner = true

	var mu sync.Mutex
	lastPass := map[int]int{}
	sawPlanner := false
	violations := 0
	opts.Progress = func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Stage {
		case core.StageCollect:
			if ev.Done {
				return
			}
			if ev.Pass < lastPass[ev.Chip] || ev.Pass > ev.Passes {
				violations++
			}
			lastPass[ev.Chip] = ev.Pass
		case core.StageSolve:
			if ev.PatternsUsed > 0 && ev.PatternsPlanned >= ev.PatternsUsed {
				sawPlanner = true
			}
		}
	}
	chips := []core.Chip{testChip(t, 210), testChip(t, 211)}
	rep, err := core.Recover(context.Background(), chips, opts, New(2).ForEach)
	if err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d non-monotonic collect pass events", violations)
	}
	if !sawPlanner {
		t.Fatal("no solve event carried planner pattern progress")
	}
	if !rep.Result.Unique {
		t.Fatalf("planned recovery not unique (%d candidates)", len(rep.Result.Codes))
	}
}
