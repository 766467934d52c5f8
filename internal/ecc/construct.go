package ecc

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/gf2"
)

// This file provides the code constructors used throughout the reproduction:
// a uniformly random SEC Hamming code (the space BEER must search), plus the
// deterministic "design families" used by the three simulated DRAM
// manufacturers. Different manufacturers pick different parity-check matrix
// organizations for circuit-level reasons (paper §5.1.3); the families below
// mimic the unstructured (A) and visibly structured (B, C) miscorrection
// profiles in the paper's Figure 3.

// dataColumnValues returns all candidate data-column values for r parity
// bits: every r-bit value with Hamming weight >= 2, in increasing numeric
// order. There are 2^r - r - 1 of them.
func dataColumnValues(r int) []uint64 {
	limit := uint64(1) << uint(r)
	vals := make([]uint64, 0, limit)
	for v := uint64(3); v < limit; v++ {
		if weightOK(v) {
			vals = append(vals, v)
		}
	}
	return vals
}

func pFromColumnValues(k, r int, cols []uint64) gf2.Mat {
	p := gf2.NewMat(r, k)
	for j := 0; j < k; j++ {
		for i := 0; i < r; i++ {
			if cols[j]>>uint(i)&1 == 1 {
				p.Set(i, j, true)
			}
		}
	}
	return p
}

// RandomHamming returns a uniformly random standard-form (k+r, k) SEC Hamming
// code with the minimum number of parity bits for k, drawing randomness from
// rng. Two calls with identical rng state produce identical codes.
func RandomHamming(k int, rng *rand.Rand) *Code {
	return RandomHammingWithParity(k, MinParityBits(k), rng)
}

// RandomHammingWithParity is RandomHamming with an explicit parity-bit count
// r, which must satisfy 2^r - r - 1 >= k.
func RandomHammingWithParity(k, r int, rng *rand.Rand) *Code {
	vals := dataColumnValues(r)
	if len(vals) < k {
		panic(fmt.Sprintf("ecc: r=%d parity bits support at most k=%d, requested %d", r, len(vals), k))
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return mustNew(pFromColumnValues(k, r, vals[:k]))
}

// SequentialHamming returns the deterministic code whose data columns are the
// weight->=2 syndrome values in increasing numeric order. Its regular column
// structure produces the repeating miscorrection-profile patterns the paper
// observes for manufacturer B.
func SequentialHamming(k int) *Code {
	r := MinParityBits(k)
	vals := dataColumnValues(r)
	return mustNew(pFromColumnValues(k, r, vals[:k]))
}

// LowWeightHamming returns the deterministic code whose data columns are the
// weight->=2 syndrome values ordered by (Hamming weight, value). Minimizing
// column weight minimizes the XOR-gate count of the encoder and syndrome
// logic, a realistic circuit-level design choice (paper §5.1.3 speculates
// manufacturers organize parity-check matrices for circuit trade-offs). Its
// column weight profile differs from SequentialHamming's for shortened
// codes, so the two are genuinely inequivalent designs (a row permutation
// preserves column weights).
func LowWeightHamming(k int) *Code {
	r := MinParityBits(k)
	vals := dataColumnValues(r)
	ordered := append([]uint64(nil), vals...)
	key := func(x uint64) uint64 { return uint64(bits.OnesCount64(x))<<uint(r) | x }
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && key(ordered[j]) < key(ordered[j-1]); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return mustNew(pFromColumnValues(k, r, ordered[:k]))
}

// BitReversedHamming returns the code whose data columns are the weight->=2
// syndrome values ordered by their bit-reversed value.
//
// Note: bit reversal permutes the parity rows, so this code is *equivalent*
// (ecc.EquivalentTo) to SequentialHamming of the same k — the two differ
// only in internal parity labeling and are externally indistinguishable. It
// is kept as a worked example of code equivalence; simulated manufacturers
// use genuinely distinct designs.
func BitReversedHamming(k int) *Code {
	r := MinParityBits(k)
	vals := dataColumnValues(r)
	rev := func(x uint64) uint64 { return bits.Reverse64(x) >> uint(64-r) }
	// Insertion sort by reversed value keeps this dependency-free and stable.
	ordered := append([]uint64(nil), vals...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && rev(ordered[j]) < rev(ordered[j-1]); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return mustNew(pFromColumnValues(k, r, ordered[:k]))
}

// Hamming74 returns the (7,4,3) Hamming code of the paper's Equation 1, used
// as the running example for Tables 1 and 2.
func Hamming74() *Code {
	return mustNew(gf2.MatFromBits([][]int{
		{1, 1, 1, 0},
		{1, 1, 0, 1},
		{1, 0, 1, 1},
	}))
}
