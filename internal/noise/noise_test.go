package noise

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
)

func testProfile(t *testing.T, k int, seed uint64) (*ecc.Code, *core.Profile) {
	t.Helper()
	code := ecc.RandomHamming(k, rand.New(rand.NewPCG(seed, uint64(k))))
	return code, core.ExactProfile(code, core.Set1.Patterns(k))
}

func TestPerturbDeterministic(t *testing.T) {
	_, prof := testProfile(t, 16, 3)
	m := Model{FP: 0.1, FN: 0.2, Seed: 42}
	a, touchedA := m.Perturb(prof)
	b, touchedB := m.Perturb(prof)
	if len(touchedA) != len(touchedB) {
		t.Fatalf("same model touched %d then %d entries", len(touchedA), len(touchedB))
	}
	for i := range touchedA {
		if touchedA[i] != touchedB[i] {
			t.Fatalf("touched lists differ: %v vs %v", touchedA, touchedB)
		}
	}
	for i := range a.Entries {
		if !a.Entries[i].Possible.Equal(b.Entries[i].Possible) {
			t.Fatalf("entry %d differs between identical perturbations", i)
		}
	}
	// A different seed draws an independent corruption pattern.
	c, _ := Model{FP: 0.1, FN: 0.2, Seed: 43}.Perturb(prof)
	same := true
	for i := range a.Entries {
		if !a.Entries[i].Possible.Equal(c.Entries[i].Possible) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical corruption")
	}
}

func TestPerturbDoesNotModifyInput(t *testing.T) {
	_, prof := testProfile(t, 12, 7)
	before := make([]string, len(prof.Entries))
	for i, e := range prof.Entries {
		before[i] = e.Possible.String()
	}
	Model{FP: 1, FN: 1, Seed: 1}.Perturb(prof)
	for i, e := range prof.Entries {
		if e.Possible.String() != before[i] {
			t.Fatalf("Perturb modified input entry %d", i)
		}
	}
}

// TestPerturbChargedInvariant: at the extreme rates every non-CHARGED bit
// flips and every CHARGED bit stays — CHARGED positions are ambiguous by
// construction and must never be corrupted.
func TestPerturbChargedInvariant(t *testing.T) {
	_, prof := testProfile(t, 10, 5)
	out, touched := Model{FP: 1, FN: 1, Seed: 9}.Perturb(prof)
	if len(touched) != len(prof.Entries) {
		t.Fatalf("rates 1/1 touched %d of %d entries", len(touched), len(prof.Entries))
	}
	for i, e := range prof.Entries {
		ne := out.Entries[i]
		for b := 0; b < prof.K; b++ {
			got, want := ne.Possible.Get(b), e.Possible.Get(b)
			if e.Pattern.Has(b) {
				if got != want {
					t.Fatalf("entry %d: CHARGED bit %d changed", i, b)
				}
			} else if got == want {
				t.Fatalf("entry %d: non-CHARGED bit %d survived rates 1/1", i, b)
			}
		}
	}
}

func TestZeroModel(t *testing.T) {
	if !(Model{}).Zero() || (Model{FP: 0.1}).Zero() {
		t.Fatal("Zero() misclassifies")
	}
	if (Model{Seed: 99}).Perturber() != nil {
		t.Fatal("zero model must yield a nil Perturber")
	}
	_, prof := testProfile(t, 8, 1)
	out, touched := (Model{}).Perturb(prof)
	if len(touched) != 0 {
		t.Fatalf("zero model touched entries %v", touched)
	}
	for i := range prof.Entries {
		if !out.Entries[i].Possible.Equal(prof.Entries[i].Possible) {
			t.Fatalf("zero model changed entry %d", i)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, m := range []Model{{}, {FP: 1, FN: 1}, PBEM25, PBEM50, PBEM75, PBEM100} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
	}
	for _, m := range []Model{{FP: -0.1}, {FN: 1.5}} {
		if err := m.Validate(); err == nil {
			t.Fatalf("%+v validated", m)
		}
	}
}

// TestSupportFromCounts: an entry whose weakest possible-bit observation
// count is far below the strongest entry's scores proportionally low — the
// false-positive signature of a bit that barely cleared the threshold.
func TestSupportFromCounts(t *testing.T) {
	_, prof := testProfile(t, 8, 11)
	counts := &core.Counts{K: prof.K}
	weak := -1
	for i, e := range prof.Entries {
		ce := core.CountEntry{Pattern: e.Pattern, Errors: make([]int64, prof.K), Words: 1000}
		hasPossible := false
		for b := 0; b < prof.K; b++ {
			if e.Possible.Get(b) && !e.Pattern.Has(b) {
				ce.Errors[b] = 200
				hasPossible = true
			}
		}
		if hasPossible && weak < 0 {
			weak = i
			for b := 0; b < prof.K; b++ {
				if ce.Errors[b] > 0 {
					ce.Errors[b] = 10 // barely above threshold
					break
				}
			}
		}
		counts.Entries = append(counts.Entries, ce)
	}
	if weak < 0 {
		t.Fatal("profile has no entry with possible bits")
	}
	support, err := SupportFromCounts(counts, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(support) != len(prof.Entries) {
		t.Fatalf("support length %d, want %d", len(support), len(prof.Entries))
	}
	for i, s := range support {
		switch {
		case i == weak:
			if s != 10.0/200.0 {
				t.Fatalf("weak entry %d scored %v, want 0.05", i, s)
			}
		case s != 1 && s != 10.0/200.0:
			// Entries with no possible bits and full-strength entries both
			// score 1 (or the weak ratio if they happen to share bit counts).
			t.Fatalf("entry %d scored %v", i, s)
		}
	}

	// Shape mismatches are rejected.
	if _, err := SupportFromCounts(counts, &core.Profile{K: prof.K}); err == nil {
		t.Fatal("entry-count mismatch accepted")
	}
	if _, err := SupportFromCounts(nil, prof); err == nil {
		t.Fatal("nil counts accepted")
	}
}

// TestPerturbThenNoisySolveRecovers is the package-level integration: a
// false-positive Model corrupts an exact 1-CHARGED profile, and the drop-k
// engine — steered by support scores shaped like SupportFromCounts output —
// retracts the corrupted entries and recovers the ground truth.
func TestPerturbThenNoisySolveRecovers(t *testing.T) {
	code, prof := testProfile(t, 24, 17)
	m := Model{FP: 0.01, Seed: 23}
	corrupted, touched := m.Perturb(prof)
	if len(touched) == 0 {
		t.Skip("model touched nothing at this seed; pick another")
	}
	support := make([]float64, len(corrupted.Entries))
	for i := range support {
		support[i] = 1
	}
	for _, i := range touched {
		support[i] = 0.2
	}
	res, err := core.Solve(context.Background(), corrupted, core.SolveOptions{
		ParityBits:   code.ParityBits(),
		MaxSolutions: -1,
		Noisy:        &core.NoisyOptions{MaxDrop: -1, Support: support},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Codes {
		if c.EquivalentTo(code) {
			found = true
		}
	}
	if !found {
		t.Fatalf("ground truth not recovered (%d candidates, dropped %v)",
			len(res.Codes), res.Noise.DroppedEntries)
	}
	if res.Noise.Dropped == 0 || res.Noise.Dropped > len(touched) {
		t.Fatalf("dropped %d entries, model corrupted %d", res.Noise.Dropped, len(touched))
	}
}
