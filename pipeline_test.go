package repro_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/einsim"
)

// TestPipelineRecover runs the functional-options API end to end over two
// chips and checks the recovered function and the progress stream.
func TestPipelineRecover(t *testing.T) {
	var (
		mu     sync.Mutex
		events []repro.ProgressEvent
	)
	pipe := repro.NewPipeline(
		repro.WithFastWindows(),
		repro.WithWorkers(2),
		repro.WithProgress(func(ev repro.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	)
	chips := repro.SimulatedChips(repro.MfrB, 16, 2, 9)
	rep, err := pipe.Recover(context.Background(), chips...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Unique {
		t.Fatalf("expected unique recovery, got %d candidates", len(rep.Result.Codes))
	}
	if !rep.Result.Codes[0].EquivalentTo(repro.GroundTruth(repro.SimulatedChip(repro.MfrB, 16, 9))) {
		t.Fatal("pipeline recovered the wrong function")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("WithProgress received no events")
	}
	chipSeen := map[int]bool{}
	var solveDone bool
	for _, ev := range events {
		if ev.Stage == repro.StageCollect && !ev.Done {
			chipSeen[ev.Chip] = true
		}
		if ev.Stage == repro.StageSolve && ev.Done {
			solveDone = true
		}
	}
	if !chipSeen[0] || !chipSeen[1] {
		t.Fatalf("progress events missing chips: %v", chipSeen)
	}
	if !solveDone {
		t.Fatal("no solve-done event")
	}
}

// TestPipelineRecoverDefersEncoding: the default recovery path solves with
// deferred encoding — a {1,2}-CHARGED profile leaves multi-CHARGED entries
// un-encoded — and still lands on the code the eager reference encoding
// finds for the same profile.
func TestPipelineRecoverDefersEncoding(t *testing.T) {
	ctx := context.Background()
	rep, err := repro.NewPipeline(repro.WithFastWindows(), repro.WithWorkers(1)).
		Recover(ctx, repro.SimulatedChip(repro.MfrB, 16, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.PatternsSkipped == 0 {
		t.Fatalf("recovery encoded all %d profile entries; want deferred entries skipped", rep.Result.PatternsUsed)
	}
	if !rep.Result.Unique {
		t.Fatalf("expected unique recovery, got %d candidates", len(rep.Result.Codes))
	}
	eager, err := core.SolveEager(ctx, rep.Profile, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !eager.Unique || !rep.Result.Codes[0].EquivalentTo(eager.Codes[0]) {
		t.Fatalf("recovered code differs from the eager reference solve (eager unique=%v, %d candidates)",
			eager.Unique, len(eager.Codes))
	}
}

// TestPipelineRecoverCancel: cancelling the context mid-collection surfaces
// context.Canceled through the facade.
func TestPipelineRecoverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipe := repro.NewPipeline(
		repro.WithFastWindows(),
		repro.WithRounds(10),
		repro.WithProgress(func(ev repro.ProgressEvent) {
			if ev.Stage == repro.StageCollect && ev.Pass >= 2 {
				cancel()
			}
		}),
	)
	_, err := pipe.Recover(ctx, repro.SimulatedChip(repro.MfrB, 16, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Recover returned %v, want context.Canceled", err)
	}
}

// TestPipelineOptions checks that options land in the effective
// configuration.
func TestPipelineOptions(t *testing.T) {
	pipe := repro.NewPipeline(
		repro.WithPatternSet(repro.Set1),
		repro.WithWindowSweep(8),
		repro.WithRounds(7),
		repro.WithAntiRows(),
		repro.WithParityBits(6),
	)
	opts := pipe.RecoverOptions()
	if opts.PatternSet != repro.Set1 ||
		len(opts.Collect.Windows) != 2 ||
		opts.Collect.Rounds != 7 ||
		!opts.UseAntiRows ||
		opts.Solve.ParityBits != 6 {
		t.Fatalf("options not applied: %+v", opts)
	}
}

// TestPipelineSolveAndSimulate covers the remaining pipeline entry points.
func TestPipelineSolveAndSimulate(t *testing.T) {
	ctx := context.Background()
	code := repro.NewHammingCode(11, 7)
	pipe := repro.NewPipeline(repro.WithParityBits(code.ParityBits()), repro.WithWorkers(2))

	res, err := pipe.Solve(ctx, repro.ExactProfile(code, repro.OneChargedPatterns(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique || !res.Codes[0].EquivalentTo(code) {
		t.Fatal("pipeline solve failed")
	}

	sim, err := pipe.Simulate(ctx, einsim.Config{
		Code:    repro.Hamming74(),
		Pattern: einsim.PatternAllOnes,
		Model:   einsim.ModelUniform,
		RBER:    1e-2,
		Words:   20000,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Words != 20000 {
		t.Fatalf("simulated %d words", sim.Words)
	}

	word := repro.SimulatedWord(code, []int{1, 5}, 1.0, 4)
	out, err := pipe.ProfileWord(ctx, code, word, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Identified {
		if c != 1 && c != 5 {
			t.Fatalf("false positive cell %d", c)
		}
	}
}

// TestChipTimeCountsEveryPass: the modelled chip time is the §6.3 runtime
// of every collection sweep a run makes. The exhaustive run makes one; the
// planner needs a second batch for a k=8 manufacturer-B chip, and each
// batch runs the whole window sweep, so the planned run models twice the
// chip time.
func TestChipTimeCountsEveryPass(t *testing.T) {
	ctx := context.Background()
	full := repro.NewPipeline(repro.WithFastWindows())
	rep, err := full.Recover(ctx, repro.SimulatedChip(repro.MfrB, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	sweep := core.ExperimentRuntime(full.RecoverOptions().Collect)
	if rep.ChipTime != sweep {
		t.Fatalf("exhaustive run: chip time %v, want the sweep's %v", rep.ChipTime, sweep)
	}

	planned, err := repro.NewPipeline(repro.WithFastWindows(), repro.WithPlanner()).
		Recover(ctx, repro.SimulatedChip(repro.MfrB, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if planned.Plan == nil || planned.Plan.Batches != 2 {
		t.Fatalf("planned run: plan %+v, want 2 batches", planned.Plan)
	}
	if planned.ChipTime != 2*sweep {
		t.Fatalf("planned run: chip time %v, want %v", planned.ChipTime, 2*sweep)
	}
}
