package core

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// bruteProfileAnti mirrors bruteProfile for anti-cell regions: write the
// complemented pattern, charge = NOT bit, enumerate every retention-error
// subset of the charged cells, decode, and record unambiguous
// miscorrections.
func bruteProfileAnti(code *ecc.Code, patterns []Pattern) *Profile {
	k := code.K()
	prof := &Profile{K: k}
	for _, pat := range patterns {
		d := gf2.NewVec(k)
		for j := 0; j < k; j++ {
			d.Set(j, !pat.Has(j)) // complement: charged cells store bit 0
		}
		cw := code.Encode(d)
		// Charged cells: anti-cell convention, charge = NOT bit.
		var charged []int
		for i := 0; i < code.N(); i++ {
			if !cw.Get(i) {
				charged = append(charged, i)
			}
		}
		possible := gf2.NewVec(k)
		for mask := 1; mask < 1<<uint(len(charged)); mask++ {
			bad := cw.Clone()
			for bi, cell := range charged {
				if mask>>uint(bi)&1 == 1 {
					bad.Set(cell, true) // charge decays: bit flips 0 -> 1
				}
			}
			got := code.Decode(bad).Data
			for b := 0; b < k; b++ {
				if !pat.Has(b) && got.Get(b) != d.Get(b) {
					possible.Set(b, true)
				}
			}
		}
		prof.Entries = append(prof.Entries, Entry{Pattern: pat, Possible: possible, Anti: true})
	}
	return prof
}

func TestExactProfileAntiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 51))
	shapes := []struct{ k, r int }{{4, 3}, {5, 4}, {8, 4}, {10, 5}}
	for _, shape := range shapes {
		for trial := 0; trial < 5; trial++ {
			code := ecc.RandomHammingWithParity(shape.k, shape.r, rng)
			// Keep charged sets small: brute force enumerates subsets of all
			// charged cells, which for anti regions is nearly the whole word.
			patterns := append(OneCharged(shape.k), TwoCharged(shape.k)...)
			got := ExactProfileAnti(code, patterns)
			want := bruteProfileAnti(code, patterns)
			if !got.Equal(want) {
				for i := range got.Entries {
					if !got.Entries[i].Possible.Equal(want.Entries[i].Possible) {
						t.Errorf("(k=%d,r=%d) pattern %v:\n got %s\nwant %s", shape.k, shape.r,
							got.Entries[i].Pattern, got.Entries[i].Possible, want.Entries[i].Possible)
					}
				}
				t.Fatal("anti oracle disagrees with brute force")
			}
		}
	}
}

// The anti-cell SAT encoding must accept the true code and reject others:
// solving a combined true+anti profile still recovers the original code.
func TestSolveWithAntiEntries(t *testing.T) {
	rng := rand.New(rand.NewPCG(52, 53))
	for trial := 0; trial < 4; trial++ {
		code := ecc.RandomHammingWithParity(8, 4, rng)
		patterns := Set12.Patterns(8)
		combined := ExactProfile(code, patterns).Append(ExactProfileAnti(code, patterns))
		res, err := Solve(context.Background(), combined, SolveOptions{ParityBits: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Unique || !res.Codes[0].EquivalentTo(code) {
			t.Fatalf("trial %d: combined profile did not recover the code (%d solutions)",
				trial, len(res.Codes))
		}
	}
}

// Anti-cell profiles carry row-parity information, so they can disambiguate
// codes that 1-CHARGED true-cell profiles alone cannot. Quantify: the
// candidate count with true+anti 1-CHARGED must never exceed the count with
// true-only 1-CHARGED.
func TestAntiProfilesNarrowTheSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 55))
	improved := 0
	for trial := 0; trial < 8; trial++ {
		code := ecc.RandomHammingWithParity(7, 4, rng)
		pats := OneCharged(7)
		trueOnly := ExactProfile(code, pats)
		resTrue, err := Solve(context.Background(), trueOnly, SolveOptions{ParityBits: 4, MaxSolutions: -1})
		if err != nil {
			t.Fatal(err)
		}
		both := trueOnly.Append(ExactProfileAnti(code, pats))
		resBoth, err := Solve(context.Background(), both, SolveOptions{ParityBits: 4, MaxSolutions: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resBoth.Codes) > len(resTrue.Codes) {
			t.Fatalf("anti profile added solutions: %d -> %d", len(resTrue.Codes), len(resBoth.Codes))
		}
		if len(resBoth.Codes) < len(resTrue.Codes) {
			improved++
		}
		// The true code always remains a solution.
		found := false
		for _, c := range resBoth.Codes {
			if c.EquivalentTo(code) {
				found = true
			}
		}
		if !found {
			t.Fatal("true code eliminated by anti constraints")
		}
	}
	if improved == 0 {
		t.Log("anti profiles never narrowed the search in this sample (allowed but unexpected)")
	}
}

// Solve must agree with the SolveEager reference encoding on every outcome.
func TestSolveMatchesSolveEager(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 57))
	for trial := 0; trial < 6; trial++ {
		k := 6 + rng.IntN(6)
		code := ecc.RandomHamming(k, rng)
		prof := ExactProfile(code, Set12.Patterns(k))
		eager, err := SolveEager(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := Solve(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(eager.Codes) != len(lazy.Codes) || eager.Unique != lazy.Unique {
			t.Fatalf("k=%d: eager %d codes (unique=%v), lazy %d codes (unique=%v)",
				k, len(eager.Codes), eager.Unique, len(lazy.Codes), lazy.Unique)
		}
		eagerKeys := map[string]bool{}
		for _, c := range eager.Codes {
			eagerKeys[c.CanonicalKey()] = true
		}
		for _, c := range lazy.Codes {
			if !eagerKeys[c.CanonicalKey()] {
				t.Fatalf("k=%d: lazy found a code eager did not", k)
			}
		}
	}
}

// Solve should materialize only a fraction of the deferred 2-CHARGED
// entries, where SolveEager encodes all of them.
func TestSolveDefersMostEntries(t *testing.T) {
	rng := rand.New(rand.NewPCG(58, 59))
	code := ecc.RandomHamming(16, rng)
	prof := ExactProfile(code, Set12.Patterns(16))
	lazy, err := Solve(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits()})
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Unique || !lazy.Codes[0].EquivalentTo(code) {
		t.Fatal("lazy solver failed to recover the code")
	}
	total := len(TwoCharged(16))
	if lazy.LazyRefinements >= total/2 {
		t.Fatalf("lazy solver materialized %d/%d deferred entries; expected far fewer",
			lazy.LazyRefinements, total)
	}
	t.Logf("lazy refinements: %d of %d deferred entries", lazy.LazyRefinements, total)

	eager, err := SolveEager(context.Background(), prof, SolveOptions{ParityBits: code.ParityBits()})
	if err != nil {
		t.Fatal(err)
	}
	if eager.PatternsSkipped != 0 || eager.LazyRefinements != 0 || eager.PatternsUsed != len(prof.Entries) {
		t.Fatalf("SolveEager deferred entries: used %d, skipped %d, refinements %d of %d",
			eager.PatternsUsed, eager.PatternsSkipped, eager.LazyRefinements, len(prof.Entries))
	}
}

func TestCountsMerge(t *testing.T) {
	mk := func() *Counts {
		return &Counts{K: 4, Entries: []CountEntry{
			{Pattern: newPattern(0), Errors: []int64{0, 1, 2, 3}, Words: 10},
			{Pattern: newPattern(1), Errors: []int64{4, 0, 0, 1}, Words: 10},
		}}
	}
	a, b := mk(), mk()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Entries[0].Words != 20 || a.Entries[0].Errors[3] != 6 {
		t.Fatalf("merge arithmetic wrong: %+v", a.Entries[0])
	}
	bad := mk()
	bad.Entries[1].Pattern = newPattern(2)
	if err := mk().Merge(bad); err == nil {
		t.Fatal("mismatched patterns must not merge")
	}
	short := &Counts{K: 4, Entries: bad.Entries[:1]}
	if err := mk().Merge(short); err == nil {
		t.Fatal("mismatched entry counts must not merge")
	}
	polar := mk()
	polar.Entries[0].Anti = true
	if err := mk().Merge(polar); err == nil {
		t.Fatal("mismatched polarity must not merge")
	}
}

func TestProfileAppend(t *testing.T) {
	code := ecc.Hamming74()
	a := ExactProfile(code, OneCharged(4))
	b := ExactProfileAnti(code, OneCharged(4))
	both := a.Append(b)
	if len(both.Entries) != 8 {
		t.Fatalf("appended profile has %d entries", len(both.Entries))
	}
	if !both.Entries[7].Anti || both.Entries[0].Anti {
		t.Fatal("polarity flags lost in append")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("appending mismatched k must panic")
		}
	}()
	a.Append(&Profile{K: 5})
}

// Property (testing/quick): a profile's Possible set never intersects the
// pattern's charged set, for random codes and random patterns, in both
// polarities.
func TestProfileDisjointFromChargedQuick(t *testing.T) {
	f := func(seed uint64, pick uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		k := 5 + int(seed%10)
		code := ecc.RandomHamming(k, rng)
		a := int(pick) % k
		b := (int(pick) / k) % k
		pat := newPattern(a, b)
		for _, prof := range []*Profile{
			ExactProfile(code, []Pattern{pat}),
			ExactProfileAnti(code, []Pattern{pat}),
		} {
			for _, ch := range pat.Charged() {
				if prof.Entries[0].Possible.Get(ch) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): profiles are invariant under parity-row
// permutation (code equivalence), for both polarities.
func TestProfileEquivalenceInvariantQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		k := 5 + int(seed%8)
		code := ecc.RandomHamming(k, rng)
		rows := make([]gf2.Vec, code.ParityBits())
		for i := range rows {
			rows[len(rows)-1-i] = code.P().Row(i)
		}
		perm, err := ecc.New(gf2.MatFromRows(rows...))
		if err != nil {
			return false
		}
		pats := OneCharged(k)
		return ExactProfile(code, pats).Equal(ExactProfile(perm, pats)) &&
			ExactProfileAnti(code, pats).Equal(ExactProfileAnti(perm, pats))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
