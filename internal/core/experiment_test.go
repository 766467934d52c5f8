package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ondie"
)

// testChip builds a small simulated chip: k=16 datawords keep the pattern
// count and SAT problem small enough for unit tests while exercising a
// shortened code (n=21 < 31).
func testChip(t *testing.T, m ondie.Manufacturer, rows int, transientBER float64) *ondie.Chip {
	t.Helper()
	chip, err := ondie.New(ondie.Config{
		Manufacturer:  m,
		DataBits:      16,
		Banks:         1,
		Rows:          rows,
		RegionsPerRow: 16,
		Seed:          0xBEE5,
		TransientBER:  transientBER,
	})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// testWindows reach deep enough into the retention distribution (per-cell
// failure probability ~0.5 at the top) that thousands of simulated words
// cover all possible error patterns, standing in for the paper's millions of
// real words (see DESIGN.md substitutions).
func testWindows() []time.Duration {
	var ws []time.Duration
	for m := 4; m <= 48; m += 4 {
		ws = append(ws, time.Duration(m)*time.Minute)
	}
	return ws
}

func TestDiscoverCellLayoutAllTrue(t *testing.T) {
	chip := testChip(t, ondie.MfrA, 32, 0)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	for r, cl := range classes[0] {
		if cl != core.ClassTrue {
			t.Fatalf("row %d classified %v, want true (manufacturer A)", r, cl)
		}
	}
}

func TestDiscoverCellLayoutMixed(t *testing.T) {
	chip := testChip(t, ondie.MfrC, 64, 0)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	mismatches := 0
	for r, cl := range classes[0] {
		var want core.CellClass
		if chip.GroundTruthCellType(0, r) == dram.TrueCell {
			want = core.ClassTrue
		} else {
			want = core.ClassAnti
		}
		if cl != want {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/64 rows misclassified", mismatches)
	}
}

// TestDiscoverWordLayout checks discovery against the chip's ground truth,
// on 64-byte rows and on 18-byte rows (k=24, three regions), whose reads
// end in a chunk shorter than 8 bytes.
func TestDiscoverWordLayout(t *testing.T) {
	for _, shape := range []struct{ k, regions int }{{16, 16}, {24, 3}} {
		chip, err := ondie.New(ondie.Config{
			Manufacturer:  ondie.MfrA,
			DataBits:      shape.k,
			Banks:         1,
			Rows:          48,
			RegionsPerRow: shape.regions,
			Seed:          0xBEE5,
		})
		if err != nil {
			t.Fatal(err)
		}
		classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
		rows := core.TrueRows(classes)
		if len(rows) != chip.Rows() {
			t.Fatalf("k=%d: %d of %d rows classified true (manufacturer A)", shape.k, len(rows), chip.Rows())
		}
		layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(layout.Words) != 2 {
			t.Fatalf("k=%d: found %d words per region, want 2", shape.k, len(layout.Words))
		}
		if layout.K() != shape.k {
			t.Fatalf("discovered k=%d, want %d", layout.K(), shape.k)
		}
		// Ground truth: even offsets belong to word 0, odd to word 1, in
		// ascending order.
		for w, group := range layout.Words {
			for bi, off := range group {
				wantWord, wantByte := chip.GroundTruthWordOfRegionByte(off)
				if wantWord != w || wantByte != bi {
					t.Fatalf("k=%d: offset %d assigned (word %d, byte %d), ground truth (%d, %d)",
						shape.k, off, w, bi, wantWord, wantByte)
				}
			}
		}
	}
}

// The make-or-break integration test: a profile collected purely through the
// chip's public interface must match the analytic profile of the chip's
// secret code, for 1-CHARGED and 2-CHARGED patterns alike.
func TestCollectedProfileMatchesExact(t *testing.T) {
	chip := testChip(t, ondie.MfrA, 192, 0)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	patterns := core.Set12.Patterns(16)
	counts, err := core.CollectCounts(context.Background(), chip, rows, layout, patterns, core.CollectOptions{
		Windows: testWindows(),
		TempC:   80,
		Rounds:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := counts.Threshold(1e-4, 2)
	want := core.ExactProfile(chip.GroundTruthCode(), patterns)
	if !got.Equal(want) {
		for i := range got.Entries {
			if !got.Entries[i].Possible.Equal(want.Entries[i].Possible) {
				t.Errorf("pattern %v:\n got %s\nwant %s", got.Entries[i].Pattern,
					got.Entries[i].Possible, want.Entries[i].Possible)
			}
		}
		t.Fatal("collected profile diverges from analytic profile")
	}
}

// End-to-end BEER: recover each manufacturer's secret ECC function through
// the public chip interface alone and verify against ground truth.
func TestRecoverEndToEnd(t *testing.T) {
	for _, m := range []ondie.Manufacturer{ondie.MfrA, ondie.MfrB, ondie.MfrC} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			rows := 192
			if m == ondie.MfrC {
				rows = 384 // only half the rows are true-cells
			}
			chip := testChip(t, m, rows, 0)
			opts := core.DefaultRecoverOptions()
			opts.Collect.Windows = testWindows()
			opts.Collect.Rounds = 3
			rep, err := core.Recover(context.Background(), []core.Chip{chip}, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.K != 16 {
				t.Fatalf("discovered k=%d, want 16", rep.K)
			}
			if !rep.Result.Unique {
				t.Fatalf("expected unique recovery, got %d candidates", len(rep.Result.Codes))
			}
			if !rep.Result.Codes[0].EquivalentTo(chip.GroundTruthCode()) {
				t.Fatal("recovered function differs from the chip's secret function")
			}
		})
	}
}

// BEER must tolerate sporadic transient errors (paper §5.2): with a
// transient BER far above anything realistic, the threshold filter still
// produces the correct profile.
func TestRecoverRobustToTransientErrors(t *testing.T) {
	chip := testChip(t, ondie.MfrB, 192, 1e-5)
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = testWindows()
	opts.Collect.Rounds = 3
	opts.ThresholdMinCount = 3
	rep, err := core.Recover(context.Background(), []core.Chip{chip}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Unique || !rep.Result.Codes[0].EquivalentTo(chip.GroundTruthCode()) {
		t.Fatal("transient errors broke recovery despite threshold filter")
	}
}

func TestExperimentRuntimeModel(t *testing.T) {
	opts := core.CollectOptions{
		Windows: []time.Duration{2 * time.Minute, 3 * time.Minute},
		Rounds:  2,
	}
	if got := core.ExperimentRuntime(opts); got != 10*time.Minute {
		t.Fatalf("runtime = %v, want 10m", got)
	}
	// Paper §6.3: 2..22 minutes in 1-minute steps is 4.2 hours for one pass.
	var paper core.CollectOptions
	for m := 2; m <= 22; m++ {
		paper.Windows = append(paper.Windows, time.Duration(m)*time.Minute)
	}
	paper.Rounds = 1
	if got := core.ExperimentRuntime(paper); got != 252*time.Minute {
		t.Fatalf("paper sweep = %v, want 4.2h (252m)", got)
	}
}

// Anti-cell collection (extension): profiles gathered from manufacturer C's
// anti-cell rows with inverted patterns must match the anti oracle.
func TestCollectedAntiProfileMatchesExact(t *testing.T) {
	chip := testChip(t, ondie.MfrC, 384, 0)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	trueRows := core.TrueRows(classes)
	antiRows := core.AntiRows(classes)
	if len(antiRows) == 0 {
		t.Fatal("manufacturer C chip must have anti-cell rows")
	}
	layout, err := core.DiscoverWordLayout(chip, trueRows, core.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	patterns := core.OneCharged(16)
	counts, err := core.CollectCounts(context.Background(), chip, antiRows, layout, patterns, core.CollectOptions{
		Windows: testWindows(),
		TempC:   80,
		Rounds:  3,
		Invert:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := counts.Threshold(1e-4, 2)
	want := core.ExactProfileAnti(chip.GroundTruthCode(), patterns)
	if !got.Equal(want) {
		for i := range got.Entries {
			if !got.Entries[i].Possible.Equal(want.Entries[i].Possible) {
				t.Errorf("pattern %v:\n got %s\nwant %s", got.Entries[i].Pattern,
					got.Entries[i].Possible, want.Entries[i].Possible)
			}
		}
		t.Fatal("collected anti profile diverges from oracle")
	}
}

// End-to-end recovery using both true- and anti-cell regions of a
// manufacturer C chip.
func TestRecoverWithAntiRows(t *testing.T) {
	chip := testChip(t, ondie.MfrC, 384, 0)
	opts := core.DefaultRecoverOptions()
	opts.Collect.Windows = testWindows()
	opts.Collect.Rounds = 3
	opts.UseAntiRows = true
	rep, err := core.Recover(context.Background(), []core.Chip{chip}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Unique || !rep.Result.Codes[0].EquivalentTo(chip.GroundTruthCode()) {
		t.Fatal("anti-augmented recovery failed")
	}
	// The profile must contain both polarities.
	sawAnti := false
	for _, e := range rep.Profile.Entries {
		if e.Anti {
			sawAnti = true
			break
		}
	}
	if !sawAnti {
		t.Fatal("no anti entries in the combined profile")
	}
}

// Multi-chip merging (paper sec. 6.3 parallelization): counts from two chips
// of the same model combine into one profile that still recovers the code.
func TestMultiChipMerge(t *testing.T) {
	mkCounts := func(seed uint64) (*core.Counts, *ondie.Chip) {
		chip, err := ondie.New(ondie.Config{
			Manufacturer: ondie.MfrB, DataBits: 16, Banks: 1, Rows: 96,
			RegionsPerRow: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
		rows := core.TrueRows(classes)
		layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
		if err != nil {
			t.Fatal(err)
		}
		counts, err := core.CollectCounts(context.Background(), chip, rows, layout, core.Set12.Patterns(16), core.CollectOptions{
			Windows: testWindows(),
			TempC:   80,
			Rounds:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return counts, chip
	}
	a, chip := mkCounts(100)
	b, _ := mkCounts(200) // same model, different physical chip
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	prof := a.Threshold(1e-4, 2)
	res, err := core.Solve(context.Background(), prof, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique || !res.Codes[0].EquivalentTo(chip.GroundTruthCode()) {
		t.Fatal("merged two-chip profile failed to recover the function")
	}
}
