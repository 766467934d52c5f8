package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ondie"
)

func cancelTestChip(t *testing.T) *ondie.Chip {
	t.Helper()
	return ondie.MustNew(ondie.Config{
		Manufacturer:  ondie.MfrB,
		DataBits:      16,
		Banks:         1,
		Rows:          192,
		RegionsPerRow: 16,
		Seed:          77,
	})
}

func fastOpts() core.RecoverOptions {
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = nil
	for m := 4; m <= 48; m += 4 {
		opts.Collect.Windows = append(opts.Collect.Windows, time.Duration(m)*time.Minute)
	}
	opts.Collect.Rounds = 3
	return opts
}

// TestCollectCountsPreCancelled: a cancelled context aborts collection at
// the very first pass boundary.
func TestCollectCountsPreCancelled(t *testing.T) {
	chip := cancelTestChip(t)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = core.CollectCounts(ctx, chip, rows, layout, core.OneCharged(layout.K()), fastOpts().Collect)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CollectCounts returned %v, want context.Canceled", err)
	}
}

// TestRecoverCancelMidCollection cancels a single-chip core.Recover from its
// progress stream and checks the context error surfaces wrapped but
// errors.Is-able.
func TestRecoverCancelMidCollection(t *testing.T) {
	opts := fastOpts()
	opts.Collect.Rounds = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passes atomic.Int64
	opts.Progress = func(ev core.Event) {
		if ev.Stage == core.StageCollect && !ev.Done && passes.Add(1) == 2 {
			cancel()
		}
	}
	_, err := core.Recover(ctx, []core.Chip{cancelTestChip(t)}, opts, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Recover returned %v, want context.Canceled", err)
	}
}

// TestRecoverProgressEvents checks the event stream's shape on a successful
// run: stages in order, every stage completed, collection passes counted
// exactly, and the solve stage reporting the final candidate count.
func TestRecoverProgressEvents(t *testing.T) {
	opts := fastOpts()
	var events []core.Event
	opts.Progress = func(ev core.Event) { events = append(events, ev) }
	rep, err := core.Recover(context.Background(), []core.Chip{cancelTestChip(t)}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Unique {
		t.Fatalf("expected unique recovery, got %d candidates", len(rep.Result.Codes))
	}

	wantPasses := opts.Collect.Rounds * len(opts.Collect.Windows)
	var gotPasses, candidates int
	stageDone := map[core.Stage]bool{}
	lastStage := core.StageDiscover
	for i, ev := range events {
		if ev.Stage < lastStage {
			t.Fatalf("event %d: stage %v after %v", i, ev.Stage, lastStage)
		}
		lastStage = ev.Stage
		if ev.Done {
			stageDone[ev.Stage] = true
			continue
		}
		switch ev.Stage {
		case core.StageCollect:
			gotPasses++
			if ev.Pass != gotPasses || ev.Passes != wantPasses {
				t.Fatalf("event %d: pass %d/%d, want %d/%d", i, ev.Pass, ev.Passes, gotPasses, wantPasses)
			}
		case core.StageSolve:
			candidates = ev.Candidates
		}
	}
	if gotPasses != wantPasses {
		t.Fatalf("saw %d collection passes, want %d", gotPasses, wantPasses)
	}
	if candidates != len(rep.Result.Codes) {
		t.Fatalf("solve events reported %d candidates, result has %d", candidates, len(rep.Result.Codes))
	}
	for _, stage := range []core.Stage{core.StageDiscover, core.StageCollect, core.StageSolve} {
		if !stageDone[stage] {
			t.Fatalf("stage %v never reported Done", stage)
		}
	}
}

// goForEach is a core.ForEachFunc that runs every index on its own
// goroutine, so tests exercise Recover's progress serialization under
// real concurrency (run with -race).
func goForEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestRecoverDoneEvents pins the driver's completion contract on every
// path: each chip sends exactly one discover-Done and one collect-Done
// event, stamped with its index, and the run sends exactly one solve-Done
// event carrying the result's solver counters (plus the planner's
// pattern economy on planned runs).
func TestRecoverDoneEvents(t *testing.T) {
	for _, planned := range []bool{false, true} {
		for _, n := range []int{1, 2} {
			opts := fastOpts()
			opts.UsePlanner = planned
			var mu sync.Mutex
			done := map[core.Stage]map[int]int{}
			var solveDone []core.Event
			opts.Progress = func(ev core.Event) {
				if !ev.Done {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if done[ev.Stage] == nil {
					done[ev.Stage] = map[int]int{}
				}
				done[ev.Stage][ev.Chip]++
				if ev.Stage == core.StageSolve {
					solveDone = append(solveDone, ev)
				}
			}
			chips := make([]core.Chip, n)
			for i := range chips {
				chips[i] = ondie.MustNew(ondie.Config{
					Manufacturer: ondie.MfrB, DataBits: 16, Banks: 1,
					Rows: 192, RegionsPerRow: 16, Seed: uint64(500 + i),
				})
			}
			rep, err := core.Recover(context.Background(), chips, opts, goForEach)
			if err != nil {
				t.Fatalf("planned=%v, %d chips: %v", planned, n, err)
			}
			for _, stage := range []core.Stage{core.StageDiscover, core.StageCollect} {
				if len(done[stage]) != n {
					t.Fatalf("planned=%v, %d chips: %v Done from chips %v, want one per chip", planned, n, stage, done[stage])
				}
				for chip, count := range done[stage] {
					if chip < 0 || chip >= n || count != 1 {
						t.Fatalf("planned=%v, %d chips: %v Done counts %v, want one per chip", planned, n, stage, done[stage])
					}
				}
			}
			if len(solveDone) != 1 {
				t.Fatalf("planned=%v, %d chips: %d solve-Done events, want 1", planned, n, len(solveDone))
			}
			ev := solveDone[0]
			stats := rep.Result.Stats
			if ev.Candidates != len(rep.Result.Codes) || ev.Conflicts != stats.Conflicts || ev.Propagations != stats.Propagations {
				t.Fatalf("planned=%v, %d chips: solve-Done %+v does not carry the result's counters %+v", planned, n, ev, stats)
			}
			if stats.Propagations == 0 {
				t.Fatalf("planned=%v, %d chips: result reports no propagations; test is vacuous", planned, n)
			}
			if planned && (ev.PatternsUsed != rep.Plan.PatternsUsed || ev.PatternsPlanned != rep.Plan.PatternsFull) {
				t.Fatalf("%d chips: solve-Done patterns %d/%d, plan %+v", n, ev.PatternsUsed, ev.PatternsPlanned, rep.Plan)
			}
		}
	}
}

// TestRecoverRejectsMismatchedFleet: chips of different models discover
// different word layouts, and Recover must refuse the fleet before any
// chip pays for a collection sweep.
func TestRecoverRejectsMismatchedFleet(t *testing.T) {
	opts := fastOpts()
	var collectEvents atomic.Int64
	opts.Progress = func(ev core.Event) {
		if ev.Stage == core.StageCollect {
			collectEvents.Add(1)
		}
	}
	chips := []core.Chip{
		cancelTestChip(t),
		ondie.MustNew(ondie.Config{Manufacturer: ondie.MfrB, DataBits: 32, Banks: 1, Rows: 192, RegionsPerRow: 16, Seed: 78}),
	}
	if _, err := core.Recover(context.Background(), chips, opts, goForEach); err == nil {
		t.Fatal("a fleet of mixed models was accepted")
	}
	if n := collectEvents.Load(); n != 0 {
		t.Fatalf("%d StageCollect events before the layout check, want 0", n)
	}
}
