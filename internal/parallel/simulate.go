package parallel

import (
	"context"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/einsim"
)

// simShardWords is the number of simulated words per shard. The shard
// decomposition depends only on the requested word count — never on the
// worker count — which is what makes sharded results bit-identical across
// pool widths: shard i always simulates the same words with the same
// per-shard RNG stream, and shards merge in index order.
const simShardWords = 4096

// simShardStream is the PCG stream-selector base for shard RNGs, keeping
// shard streams disjoint from the seed constants used elsewhere in the repo.
const simShardStream = 0x51AD0000

// SimShards returns the number of shards a words-count decomposes into.
func SimShards(words int) int {
	if words <= 0 {
		return 0
	}
	return (words + simShardWords - 1) / simShardWords
}

// shardSeed derives the RNG for one shard of one simulation. seq
// distinguishes simulations submitted under the same seed (e.g. batch
// entries); shard walks the decomposition.
func shardSeed(seed uint64, seq, shard int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, simShardStream^uint64(seq)<<20^uint64(shard)))
}

// Simulate runs an EINSim-style Monte-Carlo simulation sharded across the
// worker pool. cfg.Words is split into fixed-size shards, each shard draws
// from its own (seed, shard)-derived PCG, and shard results merge in shard
// order via einsim.Result.Merge — so the aggregate is bit-identical for any
// worker count. The per-shard RNG streams differ from a single serial
// einsim.Run stream, so compare sharded runs with sharded runs. Cancelling
// ctx stops the run at the next shard boundary and returns ctx.Err().
func (e *Engine) Simulate(ctx context.Context, cfg einsim.Config, seed uint64) (*einsim.Result, error) {
	shards := SimShards(cfg.Words)
	if shards <= 1 {
		return einsim.Run(cfg, shardSeed(seed, 0, 0))
	}
	results := make([]*einsim.Result, shards)
	errs := make([]error, shards)
	if err := e.ForEach(ctx, shards, func(i int) error {
		shardCfg := cfg
		shardCfg.Words = simShardWords
		if i == shards-1 {
			shardCfg.Words = cfg.Words - simShardWords*(shards-1)
		}
		results[i], errs[i] = einsim.Run(shardCfg, shardSeed(seed, 0, i))
		return nil
	}); err != nil {
		return nil, err
	}
	res := finishJob(0, results, errs)
	return res.Result, res.Err
}

// SimJob is one entry of a simulation batch.
type SimJob struct {
	Config einsim.Config
	Seed   uint64
}

// SimResult is one completed batch entry. Index identifies the submitted job.
type SimResult struct {
	Index  int
	Result *einsim.Result
	Err    error
}

// SimulateBatch submits N simulation configs and streams one SimResult per
// job as it completes (order not guaranteed; use Index). The whole batch
// flattens into a single level of per-shard tasks, so a single large job
// still spreads across the pool while total concurrency stays bounded by the
// pool width. Per-job results are identical to standalone Simulate-style
// sharded runs and independent of worker count. Same-shape results can be
// combined with einsim.Result.Merge, whose additive counters make the merged
// aggregate independent of arrival order.
//
// The returned channel closes after all jobs complete. The caller must drain
// it. Cancelling ctx abandons unstarted shards; entries whose shards were cut
// short surface ctx.Err() as their SimResult.Err.
func (e *Engine) SimulateBatch(ctx context.Context, jobs []SimJob) <-chan SimResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan SimResult, len(jobs))
	// Flatten every job into its shard tasks up front. A job with zero or
	// one shard still gets one task carrying the full config, so invalid
	// configs surface their einsim.Run error.
	type jobState struct {
		start, shards int // task-index range
		pending       int32
		results       []*einsim.Result
		errs          []error
	}
	states := make([]*jobState, len(jobs))
	total := 0
	for i, j := range jobs {
		shards := SimShards(j.Config.Words)
		if shards < 1 {
			shards = 1
		}
		states[i] = &jobState{
			start:   total,
			shards:  shards,
			pending: int32(shards),
			results: make([]*einsim.Result, shards),
			errs:    make([]error, shards),
		}
		total += shards
	}
	jobOf := make([]int, total)
	for i, st := range states {
		for s := 0; s < st.shards; s++ {
			jobOf[st.start+s] = i
		}
	}
	go func() {
		defer close(out)
		e.ForEach(ctx, total, func(t int) error {
			ji := jobOf[t]
			st := states[ji]
			shard := t - st.start
			cfg := jobs[ji].Config
			if st.shards > 1 {
				cfg.Words = simShardWords
				if shard == st.shards-1 {
					cfg.Words = jobs[ji].Config.Words - simShardWords*(st.shards-1)
				}
			}
			st.results[shard], st.errs[shard] = einsim.Run(cfg, shardSeed(jobs[ji].Seed, ji+1, shard))
			if atomic.AddInt32(&st.pending, -1) == 0 {
				out <- finishJob(ji, st.results, st.errs)
			}
			return nil
		})
		if err := ctx.Err(); err != nil {
			// Flush cancelled jobs so the channel still carries one result
			// per submitted job (callers drain unconditionally).
			for ji, st := range states {
				if atomic.LoadInt32(&st.pending) != 0 {
					out <- SimResult{Index: ji, Err: err}
				}
			}
		}
	}()
	return out
}

// finishJob merges one job's shard results in shard order, reporting the
// lowest-shard error if any shard failed.
func finishJob(index int, results []*einsim.Result, errs []error) SimResult {
	for _, err := range errs {
		if err != nil {
			return SimResult{Index: index, Err: err}
		}
	}
	merged := results[0]
	for _, res := range results[1:] {
		if err := merged.Merge(res); err != nil {
			return SimResult{Index: index, Err: err}
		}
	}
	return SimResult{Index: index, Result: merged}
}
