package parallel

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/einsim"
	"repro/internal/ondie"
	"repro/internal/store"
)

// workerCounts are the pool widths every determinism test sweeps: serial,
// small, and wider than most CI machines.
var workerCounts = []int{1, 2, 8}

func simConfig(words int) einsim.Config {
	return einsim.Config{
		Code:    ecc.SequentialHamming(32),
		Pattern: einsim.PatternRandom, // exercises per-word RNG draws, the hardest case
		Model:   einsim.ModelUniform,
		RBER:    1e-3,
		Words:   words,
	}
}

// TestSimulateWorkerCountIndependent is the engine's core guarantee: the same
// seed produces bit-identical aggregates at 1, 2, and 8 workers.
func TestSimulateWorkerCountIndependent(t *testing.T) {
	cfg := simConfig(3*simShardWords + 100) // uneven tail shard
	var want *einsim.Result
	for _, workers := range workerCounts {
		res, err := New(workers).Simulate(context.Background(), cfg, 42)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Words != int64(cfg.Words) {
			t.Fatalf("workers=%d simulated %d words, want %d", workers, res.Words, cfg.Words)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("workers=%d result differs from workers=%d", workers, workerCounts[0])
		}
	}
	if want.WordsWithPostError == 0 {
		t.Fatal("simulation produced no post-correction errors; test is vacuous")
	}
}

// TestSimulateSeedSensitivity guards against the shards all drawing from one
// stream: different seeds must give different aggregates.
func TestSimulateSeedSensitivity(t *testing.T) {
	cfg := simConfig(2 * simShardWords)
	e := New(4)
	a, err := e.Simulate(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Simulate(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical results")
	}
}

func TestSimShards(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, simShardWords: 1, simShardWords + 1: 2, 3 * simShardWords: 3}
	for words, want := range cases {
		if got := SimShards(words); got != want {
			t.Errorf("SimShards(%d) = %d, want %d", words, got, want)
		}
	}
}

// TestSimulateBatch checks that the streaming API delivers every job exactly
// once and that per-job results match standalone sharded runs.
func TestSimulateBatch(t *testing.T) {
	e := New(4)
	jobs := []SimJob{
		{Config: simConfig(simShardWords + 10), Seed: 7},
		{Config: simConfig(500), Seed: 7},
		{Config: simConfig(2 * simShardWords), Seed: 9},
	}
	seen := make([]*einsim.Result, len(jobs))
	for r := range e.SimulateBatch(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
		if seen[r.Index] != nil {
			t.Fatalf("job %d delivered twice", r.Index)
		}
		seen[r.Index] = r.Result
	}
	for i, res := range seen {
		if res == nil {
			t.Fatalf("job %d never delivered", i)
		}
		if res.Words != int64(jobs[i].Config.Words) {
			t.Fatalf("job %d simulated %d words, want %d", i, res.Words, jobs[i].Config.Words)
		}
	}
	// Batch entries use per-entry streams: re-running the batch reproduces it.
	again := make([]*einsim.Result, len(jobs))
	for r := range New(1).SimulateBatch(context.Background(), jobs) {
		again[r.Index] = r.Result
	}
	if !reflect.DeepEqual(seen, again) {
		t.Fatal("batch results depend on worker count")
	}
}

func TestSimulateMerged(t *testing.T) {
	e := New(4)
	jobs := []SimJob{
		{Config: simConfig(1000), Seed: 3},
		{Config: simConfig(1500), Seed: 4},
	}
	merged, err := e.SimulateMerged(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Words != 2500 {
		t.Fatalf("merged %d words, want 2500", merged.Words)
	}
	bad := append(jobs, SimJob{Config: einsim.Config{}, Seed: 1})
	if _, err := e.SimulateMerged(context.Background(), bad); err == nil {
		t.Fatal("invalid job did not fail the batch")
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	e := New(8)
	err := e.ForEach(context.Background(), 100, func(i int) error {
		if i%7 == 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("got %v, want the lowest-index failure", err)
	}
	if err := e.ForEach(context.Background(), 0, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatalf("empty ForEach returned %v", err)
	}
}

func testChip(t testing.TB, seed uint64) *ondie.Chip {
	t.Helper()
	return ondie.MustNew(ondie.Config{
		Manufacturer:  ondie.MfrB,
		DataBits:      16,
		Banks:         1,
		Rows:          192,
		RegionsPerRow: 16,
		Seed:          seed,
	})
}

func collectOpts() core.CollectOptions {
	var windows []time.Duration
	for m := 4; m <= 48; m += 4 {
		windows = append(windows, time.Duration(m)*time.Minute)
	}
	return core.CollectOptions{Windows: windows, TempC: 80, Rounds: 2}
}

// collectFromChip is one self-contained collection shard: discovery plus
// 1-CHARGED count collection on its own chip.
func collectFromChip(chip *ondie.Chip) (*core.Counts, error) {
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		return nil, err
	}
	return core.CollectCounts(context.Background(), chip, rows, layout, core.OneCharged(layout.K()), collectOpts())
}

// collectMerged runs n self-contained collection shards across the
// engine's worker pool and merges their counts in shard order — the §6.3
// multi-chip merge core.Recover performs, reduced to its scheduling and
// merge steps.
func collectMerged(e *Engine, n int, collect func(shard int) (*core.Counts, error)) (*core.Counts, error) {
	if n <= 0 {
		return nil, fmt.Errorf("no collection shards")
	}
	counts := make([]*core.Counts, n)
	err := e.ForEach(context.Background(), n, func(i int) error {
		c, err := collect(i)
		counts[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, c := range counts[1:] {
		if err := counts[0].Merge(c); err != nil {
			return nil, err
		}
	}
	return counts[0], nil
}

// TestCollectShardsWorkerCountIndependent: the same set of chips yields the
// same merged counts — and therefore the identical miscorrection profile — at
// 1, 2, and 8 workers.
func TestCollectShardsWorkerCountIndependent(t *testing.T) {
	const shards = 3
	var wantCounts *core.Counts
	var wantProfile *core.Profile
	for _, workers := range workerCounts {
		chips := make([]*ondie.Chip, shards)
		for i := range chips {
			chips[i] = testChip(t, uint64(100+i))
		}
		counts, err := collectMerged(New(workers), shards, func(shard int) (*core.Counts, error) {
			return collectFromChip(chips[shard])
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prof := counts.Threshold(1e-4, 2)
		if wantCounts == nil {
			wantCounts, wantProfile = counts, prof
			continue
		}
		if !reflect.DeepEqual(wantCounts, counts) {
			t.Fatalf("workers=%d merged counts differ", workers)
		}
		if !wantProfile.Equal(prof) {
			t.Fatalf("workers=%d thresholded profile differs", workers)
		}
	}
	var observed int64
	for _, e := range wantCounts.Entries {
		for _, n := range e.Errors {
			observed += n
		}
	}
	if observed == 0 {
		t.Fatal("collection observed no errors; test is vacuous")
	}
}

func TestCollectShardsErrors(t *testing.T) {
	e := New(2)
	if _, err := collectMerged(e, 0, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	_, err := collectMerged(e, 2, func(shard int) (*core.Counts, error) {
		if shard == 1 {
			return nil, fmt.Errorf("shard down")
		}
		return collectFromChip(testChip(t, 1))
	})
	if err == nil {
		t.Fatal("shard failure not propagated")
	}
}

// TestRecoverMultiChip runs the end-to-end recovery on several same-model
// chips through the engine and checks it still recovers the ground-truth
// function, with merged counts and profile independent of worker count.
func TestRecoverMultiChip(t *testing.T) {
	opts := core.DefaultRecoverOptions()
	opts.Collect = collectOpts()
	opts.Collect.Rounds = 3

	var want *core.Report
	for _, workers := range workerCounts {
		chips := []core.Chip{testChip(t, 200), testChip(t, 201)}
		rep, err := core.Recover(context.Background(), chips, opts, New(workers).ForEach)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Result.Unique {
			t.Fatalf("workers=%d: recovery not unique (%d candidates)", workers, len(rep.Result.Codes))
		}
		truth := testChip(t, 200).GroundTruthCode()
		if !rep.Result.Codes[0].EquivalentTo(truth) {
			t.Fatalf("workers=%d: recovered wrong function", workers)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(want.Counts, rep.Counts) {
			t.Fatalf("workers=%d merged counts differ", workers)
		}
		if !want.Profile.Equal(rep.Profile) {
			t.Fatalf("workers=%d profile differs", workers)
		}
	}
}

// TestRecoverReportStageTimes: the report splits its wall time into
// stages the same way on every path — planned and exhaustive, one chip
// and a fleet. Discovery and collection are reported, and the three stage
// times never add up to more than the call took. This is an ordering
// check on the accounting, not a speed assertion.
func TestRecoverReportStageTimes(t *testing.T) {
	for _, planned := range []bool{false, true} {
		opts := core.DefaultRecoverOptions()
		opts.Collect = collectOpts()
		opts.UsePlanner = planned
		for _, n := range []int{1, 2} {
			chips := make([]core.Chip, n)
			for i := range chips {
				chips[i] = testChip(t, uint64(400+i))
			}
			start := time.Now()
			rep, err := core.Recover(context.Background(), chips, opts, New(2).ForEach)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("planned=%v, %d chips: %v", planned, n, err)
			}
			if rep.DiscoveryTime <= 0 {
				t.Fatalf("planned=%v, %d chips: DiscoveryTime = %v, want > 0", planned, n, rep.DiscoveryTime)
			}
			if rep.CollectTime <= 0 {
				t.Fatalf("planned=%v, %d chips: CollectTime = %v, want > 0", planned, n, rep.CollectTime)
			}
			if sum := rep.DiscoveryTime + rep.CollectTime + rep.SolveTime; sum > elapsed {
				t.Fatalf("planned=%v, %d chips: discovery %v + collect %v + solve %v = %v exceeds the call's %v",
					planned, n, rep.DiscoveryTime, rep.CollectTime, rep.SolveTime, sum, elapsed)
			}
		}
	}
}

func TestRecoverNoChips(t *testing.T) {
	if _, err := core.Recover(context.Background(), nil, core.DefaultRecoverOptions(), New(1).ForEach); err == nil {
		t.Fatal("empty chip list accepted")
	}
}

// TestProfileCacheHit: a repeated (code, polarity, pattern-family) query must
// return the very same profile object, and the cache must distinguish
// polarity, family, and code.
func TestProfileCacheHit(t *testing.T) {
	e := New(2)
	codeA := ecc.SequentialHamming(16)
	codeB := ecc.LowWeightHamming(16)

	first := e.ExactProfile(codeA, core.Set1, false)
	second := e.ExactProfile(codeA, core.Set1, false)
	if first != second {
		t.Fatal("cache hit returned a different profile object")
	}
	if hits, reqs := e.CacheStats(); hits != 1 || reqs != 2 {
		t.Fatalf("cache stats = (%d hits, %d reqs), want (1, 2)", hits, reqs)
	}
	if anti := e.ExactProfile(codeA, core.Set1, true); anti == first {
		t.Fatal("anti-cell profile shared the true-cell cache slot")
	}
	if other := e.ExactProfile(codeB, core.Set1, false); other == first {
		t.Fatal("different code shared the cache slot")
	}
	if set12 := e.ExactProfile(codeA, core.Set12, false); set12 == first {
		t.Fatal("different pattern family shared the cache slot")
	}
	// Cached contents must match direct computation.
	if want := core.ExactProfile(codeA, core.OneCharged(16)); !want.Equal(first) {
		t.Fatal("cached profile differs from direct computation")
	}
}

// TestProfileCacheConcurrent hammers one key from many goroutines: all
// callers must observe the same object (single-flight, no torn state).
func TestProfileCacheConcurrent(t *testing.T) {
	e := New(8)
	code := ecc.SequentialHamming(16)
	profs := make([]*core.Profile, 64)
	if err := e.ForEach(context.Background(), len(profs), func(i int) error {
		profs[i] = e.ExactProfile(code, core.Set12, false)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range profs {
		if p != profs[0] {
			t.Fatalf("caller %d saw a different profile object", i)
		}
	}
}

func TestProfileCacheEviction(t *testing.T) {
	c := store.NewLRU[profileKey, *core.Profile](2)
	compute := func(id int) func() *core.Profile {
		return func() *core.Profile { return &core.Profile{K: id} }
	}
	k1 := profileKey{fp: 1}
	k2 := profileKey{fp: 2}
	k3 := profileKey{fp: 3}
	p1 := c.Get(k1, compute(1))
	c.Get(k2, compute(2))
	c.Get(k3, compute(3)) // evicts k1
	if got := c.Get(k1, compute(101)); got == p1 {
		t.Fatal("evicted entry survived")
	} else if got.K != 101 {
		t.Fatal("recompute did not run after eviction")
	}
}

func TestPatternsCached(t *testing.T) {
	e := New(1)
	a := e.Patterns(core.Set2, 12)
	b := e.Patterns(core.Set2, 12)
	if &a[0] != &b[0] {
		t.Fatal("pattern family recomputed on repeat query")
	}
	if len(a) != 12*11/2 {
		t.Fatalf("Set2 k=12 has %d patterns, want %d", len(a), 12*11/2)
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(0).Workers() <= 0 {
		t.Fatal("New(0) must size the pool to the machine")
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if Default() != Default() {
		t.Fatal("Default engine must be shared")
	}
}
