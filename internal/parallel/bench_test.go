package parallel

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/einsim"
	"repro/internal/ondie"
)

// benchSimWords sizes the simulation benchmarks: large enough that sharding
// overhead is amortized, small enough for -benchtime 1x CI runs.
const benchSimWords = 16 * simShardWords

// BenchmarkSerialSimulate is the single-goroutine baseline the parallel
// engine is measured against.
func BenchmarkSerialSimulate(b *testing.B) {
	cfg := simConfig(benchSimWords)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := einsim.Run(cfg, rand.New(rand.NewPCG(1, uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSimulate shards the same workload across the machine.
func BenchmarkParallelSimulate(b *testing.B) {
	cfg := simConfig(benchSimWords)
	e := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Simulate(context.Background(), cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCollectChips is the shard count for the collection benchmarks,
// modeling the paper's §6.3 multi-chip parallelization.
const benchCollectChips = 4

func benchChip(seed uint64) *ondie.Chip {
	return ondie.MustNew(ondie.Config{
		Manufacturer:  ondie.MfrB,
		DataBits:      16,
		Banks:         1,
		Rows:          128,
		RegionsPerRow: 8,
		Seed:          seed,
	})
}

// BenchmarkSerialCollect gathers counts from N same-model chips one after the
// other and merges them — the pre-engine code path.
func BenchmarkSerialCollect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var merged *core.Counts
		for shard := 0; shard < benchCollectChips; shard++ {
			counts, err := collectFromChip(benchChip(uint64(shard + 1)))
			if err != nil {
				b.Fatal(err)
			}
			if merged == nil {
				merged = counts
				continue
			}
			if err := merged.Merge(counts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelCollect fans the same N chips out across the worker pool.
func BenchmarkParallelCollect(b *testing.B) {
	e := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := collectMerged(e, benchCollectChips, func(shard int) (*core.Counts, error) {
			return collectFromChip(benchChip(uint64(shard + 1)))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRecover times the full multi-chip BEER recovery on the
// engine (discovery + collection fan-out, merged counts, one solve).
func BenchmarkParallelRecover(b *testing.B) {
	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.Collect.Rounds = 3
	e := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chips := []core.Chip{testChip(b, 200), testChip(b, 201)}
		rep, err := core.Recover(context.Background(), chips, opts, e.ForEach)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Result.Unique {
			b.Fatal("recovery not unique")
		}
	}
}

// BenchmarkExactProfileCached measures the LRU cache's effect on repeated
// profile queries (every iteration after the first is a hit).
func BenchmarkExactProfileCached(b *testing.B) {
	e := New(0)
	code := ecc.RandomHamming(64, rand.New(rand.NewPCG(1, 1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ExactProfile(code, core.Set12, false)
	}
}

// BenchmarkExactProfileUncached is the same query without memoization.
func BenchmarkExactProfileUncached(b *testing.B) {
	code := ecc.RandomHamming(64, rand.New(rand.NewPCG(1, 1)))
	patterns := core.Set12.Patterns(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ExactProfile(code, patterns)
	}
}
