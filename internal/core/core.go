// Package core implements BEER (Bit-Exact ECC Recovery), the paper's primary
// contribution: determining a DRAM chip's full on-die ECC function — its
// parity-check matrix — using only software-visible post-correction errors.
//
// The methodology (paper §4-§5) has three steps, all implemented here:
//
//  1. Induce miscorrections: write carefully-crafted k-CHARGED test patterns,
//     pause refresh to cause uncorrectable data-retention errors, and read
//     back (CollectCounts, run against any Chip implementation). Supporting
//     discovery steps identify the true-/anti-cell layout (§5.1.1,
//     DiscoverCellLayout) and the dataword-to-address mapping (§5.1.2,
//     DiscoverWordLayout).
//  2. Analyze post-correction errors: a threshold filter turns raw
//     observation counts into a boolean miscorrection profile, rejecting
//     sporadic transient errors (§5.2, Counts.Threshold).
//  3. Solve for the ECC function: a SAT encoding over the unknown entries of
//     the standard-form parity-check matrix H = [P | I] finds every code
//     consistent with the profile (§5.3, Solve), including the uniqueness
//     check.
//
// The package also provides an exact miscorrection-profile oracle
// (ExactProfile) derived analytically from the retention-error model, used
// for the correctness evaluation (paper §6.1) without Monte-Carlo noise.
//
// Entry points: Recover is the one recovery driver — the whole methodology
// against one chip or a same-model fleet, exhaustive or (with
// RecoverOptions.UsePlanner) the adaptive collect↔solve loop; its
// ForEachFunc argument supplies the per-chip fan-out (internal/parallel's
// Engine.ForEach, or a serial loop); Solve/SolveSession are the one solve
// engine — exact with deferred encoding, or noisy in guarded mode with
// SolveOptions.Noisy (SolveEager is the exact mode's eager test reference);
// Planner interleaves collection with solving and stops at uniqueness;
// SolveStage is the cache-aware solve of Recover's exhaustive path.
// Profile.Canonical/Profile.Hash define the profile's content address —
// the key of the recovered-code registry (internal/store) — and SolveCache
// is the interface through which a registry short-circuits repeated solves
// of the same fingerprint.
//
// Invariants: every long-running entry point takes a context and stops at
// the next safe boundary (collection pass, SAT conflict); partial
// experimental data is discarded on cancellation, because an unevenly
// sampled profile would bias the §5.2 threshold filter; progress callbacks
// (ProgressFunc) are serialized per run.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Pattern is a test pattern identified by the set of CHARGED data-bit
// positions (paper §4.2.3). For a true-cell region, CHARGED means logical
// '1'; collection code handles the polarity.
type Pattern struct {
	charged []int // sorted, deduplicated
}

// NewPattern builds a pattern from charged data-bit indices.
func NewPattern(charged ...int) Pattern {
	c := append([]int(nil), charged...)
	sort.Ints(c)
	out := c[:0]
	for i, v := range c {
		if i > 0 && v == c[i-1] {
			continue
		}
		out = append(out, v)
	}
	return Pattern{charged: out}
}

// Charged returns the sorted charged data-bit indices.
func (p Pattern) Charged() []int { return append([]int(nil), p.charged...) }

// Weight returns the number of charged bits.
func (p Pattern) Weight() int { return len(p.charged) }

// Has reports whether data bit b is charged in the pattern.
func (p Pattern) Has(b int) bool {
	i := sort.SearchInts(p.charged, b)
	return i < len(p.charged) && p.charged[i] == b
}

// String renders the pattern as e.g. "C{3}" or "C{3,17}".
func (p Pattern) String() string {
	var b strings.Builder
	b.Grow(3 + 3*len(p.charged))
	b.WriteString("C{")
	for i, c := range p.charged {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteByte('}')
	return b.String()
}

// OneCharged returns the k patterns with exactly one CHARGED data bit.
func OneCharged(k int) []Pattern {
	out := make([]Pattern, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, Pattern{charged: []int{i}})
	}
	return out
}

// TwoCharged returns the k-choose-2 patterns with exactly two CHARGED bits.
func TwoCharged(k int) []Pattern {
	out := make([]Pattern, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out = append(out, Pattern{charged: []int{i, j}})
		}
	}
	return out
}

// NCharged returns all patterns with exactly w CHARGED bits among k. The
// count is k choose w; callers are responsible for keeping w small.
func NCharged(k, w int) []Pattern {
	if w < 0 || w > k {
		return nil
	}
	var out []Pattern
	idx := make([]int, w)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, Pattern{charged: append([]int(nil), idx...)})
		// Advance the combination.
		i := w - 1
		for i >= 0 && idx[i] == k-w+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < w; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// PatternSet names the pattern families the paper evaluates (Figure 5).
type PatternSet int

const (
	// Set1 is the 1-CHARGED patterns alone.
	Set1 PatternSet = iota
	// Set2 is the 2-CHARGED patterns alone.
	Set2
	// Set3 is the 3-CHARGED patterns alone.
	Set3
	// Set12 is the union of 1- and 2-CHARGED patterns, which the paper shows
	// uniquely identifies every evaluated code.
	Set12
)

func (ps PatternSet) String() string {
	switch ps {
	case Set1:
		return "1-CHARGED"
	case Set2:
		return "2-CHARGED"
	case Set3:
		return "3-CHARGED"
	case Set12:
		return "{1,2}-CHARGED"
	}
	return fmt.Sprintf("PatternSet(%d)", int(ps))
}

// Patterns materializes the pattern family for dataword length k.
func (ps PatternSet) Patterns(k int) []Pattern {
	switch ps {
	case Set1:
		return OneCharged(k)
	case Set2:
		return TwoCharged(k)
	case Set3:
		return NCharged(k, 3)
	case Set12:
		return append(OneCharged(k), TwoCharged(k)...)
	}
	panic(fmt.Sprintf("core: unknown pattern set %d", int(ps)))
}
