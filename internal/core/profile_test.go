package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ecc"
	"repro/internal/gf2"
)

// bruteProfile derives a miscorrection profile by exhaustively simulating
// every retention-error subset of the CHARGED cells of each pattern's
// codeword and decoding it — the ground-truth semantics the analytic oracle
// must match.
func bruteProfile(code *ecc.Code, patterns []Pattern) *Profile {
	k := code.K()
	prof := &Profile{K: k}
	for _, pat := range patterns {
		d := gf2.NewVec(k)
		for _, j := range pat.Charged() {
			d.Set(j, true)
		}
		cw := code.Encode(d)
		charged := cw.Support() // true-cells: bit value 1 == CHARGED
		possible := gf2.NewVec(k)
		for mask := 1; mask < 1<<uint(len(charged)); mask++ {
			bad := cw.Clone()
			for bi, cell := range charged {
				if mask>>uint(bi)&1 == 1 {
					bad.Set(cell, false) // CHARGED -> DISCHARGED only
				}
			}
			got := code.Decode(bad).Data
			for b := 0; b < k; b++ {
				if !pat.Has(b) && got.Get(b) != d.Get(b) {
					possible.Set(b, true)
				}
			}
		}
		prof.Entries = append(prof.Entries, Entry{Pattern: pat, Possible: possible})
	}
	return prof
}

// TestExactProfileMatchesBruteForce is the oracle's keystone test: the
// closed-form profile must match exhaustive error-injection simulation for
// random codes of several shapes and all pattern families.
func TestExactProfileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	shapes := []struct{ k, r int }{
		{4, 3},  // full-length (7,4)
		{5, 4},  // shortened
		{8, 4},  // shortened
		{11, 4}, // full-length (15,11)
		{10, 5}, // heavily shortened
	}
	for _, shape := range shapes {
		for trial := 0; trial < 6; trial++ {
			code := ecc.RandomHammingWithParity(shape.k, shape.r, rng)
			patterns := append(Set12.Patterns(shape.k), nCharged(shape.k, 3)...)
			got := ExactProfile(code, patterns)
			want := bruteProfile(code, patterns)
			if !got.Equal(want) {
				t.Fatalf("(k=%d,r=%d) trial %d: oracle disagrees with brute force\noracle:\n%s\nbrute:\n%s",
					shape.k, shape.r, trial, got, want)
			}
		}
	}
}

// TestExactProfileSlicedMatchesScalar holds the transposed-lane kernel
// bit-identical to the per-data-bit scalar reference across code shapes —
// including k > 64, where the lane planes span a ragged second chunk — for
// both true-cell and anti-cell semantics.
func TestExactProfileSlicedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(70, 80))
	shapes := []struct{ k, r int }{
		{4, 3},
		{11, 4},
		{26, 5},
		{57, 6},
		{64, 7},  // exactly one full chunk
		{71, 7},  // ragged second chunk
		{110, 7}, // two nearly full chunks
	}
	for _, shape := range shapes {
		for trial := 0; trial < 4; trial++ {
			code := ecc.RandomHammingWithParity(shape.k, shape.r, rng)
			patterns := append(Set12.Patterns(shape.k), nCharged(shape.k, 3)...)
			for _, anti := range []bool{false, true} {
				got := exactProfileSliced(code, patterns, anti)
				want := exactProfileScalar(code, patterns, anti)
				if !got.Equal(want) {
					t.Fatalf("(k=%d,r=%d) trial %d anti=%v: bitsliced oracle diverges from scalar",
						shape.k, shape.r, trial, anti)
				}
			}
		}
	}
}

// TestTable2 reproduces the paper's Table 2: the miscorrection profile of
// the Equation-1 (7,4) Hamming code under the 1-CHARGED patterns.
// Miscorrections are possible only for the pattern charging bit 0, and then
// in every other bit.
func TestTable2(t *testing.T) {
	prof := ExactProfile(ecc.Hamming74(), OneCharged(4))
	for _, e := range prof.Entries {
		a := e.Pattern.Charged()[0]
		for b := 0; b < 4; b++ {
			if b == a {
				continue
			}
			want := a == 0
			if e.Possible.Get(b) != want {
				t.Fatalf("pattern %d bit %d: possible=%v, want %v\n%s",
					a, b, e.Possible.Get(b), want, prof)
			}
		}
	}
}

func TestProfileString(t *testing.T) {
	prof := ExactProfile(ecc.Hamming74(), OneCharged(4))
	s := prof.String()
	// Pattern 3 row should be all '-' except '?' at its own position.
	want := "C{3}         [---?]\n"
	if got := s[len(s)-len(want):]; got != want {
		t.Fatalf("last row = %q, want %q", got, want)
	}
}

func TestProfileEqual(t *testing.T) {
	a := ExactProfile(ecc.Hamming74(), OneCharged(4))
	b := ExactProfile(ecc.Hamming74(), OneCharged(4))
	if !a.Equal(b) {
		t.Fatal("identical profiles reported unequal")
	}
	c := ExactProfile(ecc.SequentialHamming(4), OneCharged(4))
	_ = c
	b.Entries[0].Possible.Flip(1)
	if a.Equal(b) {
		t.Fatal("modified profile reported equal")
	}
}

// Different codes (up to equivalence) usually produce different profiles;
// equivalent codes always produce identical profiles. The latter is the
// invariant that makes recovery up to equivalence the best possible outcome.
func TestEquivalentCodesShareProfiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 40))
	for trial := 0; trial < 10; trial++ {
		code := ecc.RandomHammingWithParity(8, 4, rng)
		// Row-permute P: an equivalent code.
		p := code.P()
		rows := make([]gf2.Vec, p.Rows())
		for i := range rows {
			rows[i] = p.Row(i)
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		perm, err := ecc.New(gf2.MatFromRows(rows...))
		if err != nil {
			t.Fatal(err)
		}
		if !perm.EquivalentTo(code) {
			t.Fatal("row permutation must preserve equivalence")
		}
		pats := Set12.Patterns(8)
		if !ExactProfile(code, pats).Equal(ExactProfile(perm, pats)) {
			t.Fatal("equivalent codes must have identical miscorrection profiles")
		}
	}
}
