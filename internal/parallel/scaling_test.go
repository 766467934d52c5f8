package parallel

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ondie"
)

// scalarTestChip mirrors testChip but forces the Config.ScalarECC reference
// path, giving a reference engine that shares the substrate seed (and
// therefore the exact decay behavior) with the default chips.
func scalarTestChip(t testing.TB, seed uint64) *ondie.Chip {
	t.Helper()
	return ondie.MustNew(ondie.Config{
		Manufacturer:  ondie.MfrB,
		DataBits:      16,
		Banks:         1,
		Rows:          192,
		RegionsPerRow: 16,
		Seed:          seed,
		ScalarECC:     true,
	})
}

// TestCollectBitslicedMatchesScalarEngine is the cross-layer determinism
// guarantee for the default on-die row codec (word at a time over packed H
// columns): fanning collection out over default chips at 1, 2, and 8
// workers produces merged counts bit-identical to a serial run over
// scalar-ECC chips with the same seeds. Any divergence isolates a codec bug,
// since identical seeds give identical substrate decay.
func TestCollectBitslicedMatchesScalarEngine(t *testing.T) {
	const shards = 3
	scalarChips := make([]*ondie.Chip, shards)
	for i := range scalarChips {
		scalarChips[i] = scalarTestChip(t, uint64(300+i))
	}
	want, err := collectMerged(New(1), shards, func(shard int) (*core.Counts, error) {
		return collectFromChip(scalarChips[shard])
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		chips := make([]*ondie.Chip, shards)
		for i := range chips {
			chips[i] = testChip(t, uint64(300+i))
		}
		got, err := collectMerged(New(workers), shards, func(shard int) (*core.Counts, error) {
			return collectFromChip(chips[shard])
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: merged counts diverge from the scalar engine", workers)
		}
	}
	var observed int64
	for _, e := range want.Entries {
		for _, n := range e.Errors {
			observed += n
		}
	}
	if observed == 0 {
		t.Fatal("collection observed no errors; test is vacuous")
	}
}
