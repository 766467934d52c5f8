// Package parallel is the experiment engine that shards this repository's
// embarrassingly parallel workloads — EINSim-style Monte-Carlo fault
// injection, miscorrection-profile collection, and figure sweeps — across a
// worker pool sized to the machine.
//
// The paper runs the same workloads at scale the same way: §6.3 notes that
// profile collection parallelizes across chips of the same model (counts
// simply add), and the evaluation fans simulation sweeps out over ten Xeon
// servers. Here every sharded computation derives its randomness from a
// per-shard seeded PCG and merges shard results in shard-index order, so the
// output is bit-identical regardless of the worker count (1 worker and 64
// workers produce the same bytes). That determinism is what makes the engine
// safe to put under every experiment path: tests and figures stay
// reproducible while wall-clock scales with cores.
//
// The engine also carries small LRU caches — instances of store.LRU, the
// repository's shared single-flight cache primitive — of exact
// miscorrection profiles keyed on (code, polarity/error model, pattern
// family) and of materialized pattern families, because sweeps like
// Figure 5 and the ablations recompute identical profiles many times.
//
// Entry points: New/Default build or share an engine; ForEach is the
// scheduling primitive (bounded workers, deterministic lowest-index error,
// full goroutine join even on cancellation); Simulate/SimulateBatch shard
// EINSim runs. The engine only schedules BEER recovery: core.Recover runs
// the §6.3 multi-chip fan-out and merge on whatever ForEach it is given,
// so callers pass Engine.ForEach.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/store"
)

// Engine schedules sharded experiments over a bounded worker pool and caches
// recomputable artifacts. The zero value is not usable; use New or Default.
// An Engine is safe for concurrent use.
type Engine struct {
	workers  int
	inflight atomic.Int64
	runs     atomic.Int64
	profiles *store.LRU[profileKey, *core.Profile]
	patterns *store.LRU[patternKey, []core.Pattern]
}

// New returns an engine with the given worker-pool width. workers <= 0 means
// runtime.NumCPU().
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{
		workers:  workers,
		profiles: newProfileCache(),
		patterns: newPatternCache(),
	}
}

// Workers returns the worker-pool width.
func (e *Engine) Workers() int { return e.workers }

// InFlight gauges how many sharded computations (ForEach calls) are
// executing right now — the engine-level load figure beerd exposes on
// /healthz and as the beerd_engine_inflight gauge.
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// Runs counts the sharded computations (ForEach calls) the engine has
// started over its lifetime — the cumulative companion to the InFlight
// gauge, exported as the beerd_engine_runs_total metric. A recovery run
// through core.Recover counts at least two: its discovery phase plus one
// or more collect phases.
func (e *Engine) Runs() int64 { return e.runs.Load() }

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine (runtime.NumCPU() workers),
// creating it on first use. Callers that need a different pool width build
// their own with New (see cmd/figures -workers).
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0) })
	return defaultEngine
}

// ForEach runs fn(0..n-1) across the worker pool and waits for completion.
// Every index runs even when some fail; the returned error is the one from
// the lowest failing index, so the outcome is deterministic regardless of
// scheduling.
//
// Cancelling ctx stops workers from claiming further indices; in-flight fn
// calls finish (fn implementations that honor ctx themselves return sooner),
// all spawned goroutines are joined before ForEach returns, and the result
// is ctx.Err(). A nil ctx means context.Background().
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.inflight.Add(1)
	e.runs.Add(1)
	defer e.inflight.Add(-1)
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
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
	var (
		mu       sync.Mutex
		errIndex = n
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := claim()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIndex {
						errIndex, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
