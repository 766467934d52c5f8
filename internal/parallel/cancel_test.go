package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRecoverCancelMidCollection cancels a multi-chip recovery from inside
// its own progress stream — i.e. mid-collection — and asserts that Recover
// (a) returns context.Canceled, (b) returns promptly (within one collection
// round, bounded generously here), and (c) leaks no worker goroutines.
// Run under -race (CI does), this also exercises the progress serialization.
func TestRecoverCancelMidCollection(t *testing.T) {
	baseline := runtime.NumGoroutine()

	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.Collect.Rounds = 8 // long enough that cancellation lands mid-sweep

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passes atomic.Int64
	opts.Progress = func(ev core.Event) {
		// Cancel after the third completed collection pass of any chip:
		// the run is then provably mid-collection.
		if ev.Stage == core.StageCollect && !ev.Done && passes.Add(1) == 3 {
			cancel()
		}
	}

	e := New(4)
	chips := []core.Chip{testChip(t, 300), testChip(t, 301), testChip(t, 302)}

	type outcome struct {
		rep *core.Report
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rep, err := core.Recover(ctx, chips, opts, e.ForEach)
		done <- outcome{rep, err}
	}()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Recover did not return within 30s of cancellation")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("Recover returned %v, want context.Canceled", out.err)
	}
	if out.rep != nil && out.rep.Result != nil {
		t.Fatalf("cancelled Recover still produced a solve result")
	}
	t.Logf("cancelled after %d passes, returned in %v", passes.Load(), time.Since(start))

	// All engine goroutines are joined before Recover returns; give the
	// runtime a moment to retire exiting goroutines, then compare counts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForEachCancelStopsClaiming verifies that cancelling a ForEach stops
// workers from claiming new indices and the call reports ctx.Err().
func TestForEachCancelStopsClaiming(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := e.ForEach(ctx, 1000, func(i int) error {
		if ran.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach returned %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the sweep (ran all %d tasks)", n)
	}
}

// TestForEachPreCancelled verifies a pre-cancelled context runs nothing.
func TestForEachPreCancelled(t *testing.T) {
	e := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if err := e.ForEach(ctx, 100, func(i int) error { ran.Add(1); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach returned %v, want context.Canceled", err)
	}
	// Workers may claim at most a handful of indices before observing
	// cancellation; the sweep must not complete.
	if n := ran.Load(); n >= 100 {
		t.Fatalf("pre-cancelled ForEach ran all %d tasks", n)
	}
}

// TestSimulateCancel verifies sharded simulation honors cancellation between
// shards.
func TestSimulateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(2)
	cfg := simConfig(200000) // many shards
	if _, err := e.Simulate(ctx, cfg, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate returned %v, want context.Canceled", err)
	}
}
