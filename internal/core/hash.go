package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file defines the canonical, content-addressable identity of a
// miscorrection profile. The profile is BEER's ECC-function fingerprint
// (paper §5.1.3): two experiments that observe the same fingerprint must
// recover the same set of candidate codes, so the profile's canonical hash is
// the natural key for a registry of recovered functions (the paper's §7
// "BEER database", internal/store). Hashing the profile rather than the
// recovered code lets a server short-circuit the expensive SAT search when a
// byte-identical fingerprint arrives again.

// canonicalVersion tags the serialization format. Bump it if the rendering
// below ever changes — a silent change would fragment content-addressed
// stores built on the old hashes.
const canonicalVersion = 1

// canonical renders the profile in its normalized serialization, the
// preimage of Hash. Normalization makes the rendering independent of
// collection order: entries are sorted by polarity, then pattern, then
// susceptibility set, and exact duplicates collapse to one line. Two
// profiles have equal Canonical bytes iff they carry identical
// pattern-miscorrection information, even if the entries were gathered in
// different orders or some were observed twice (e.g. true-cell and anti-cell
// sweeps appended in either order).
//
// The format is line-oriented and versioned:
//
//	beerprof v1 k=<k>
//	[anti ]C{...} <possible bits>
//	...
func (p *Profile) canonical() []byte {
	type line struct {
		anti    bool
		charged []int
		poss    string
	}
	lines := make([]line, 0, len(p.Entries))
	for _, e := range p.Entries {
		lines = append(lines, line{anti: e.Anti, charged: e.Pattern.Charged(), poss: e.Possible.String()})
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.anti != b.anti {
			return !a.anti // true-cell entries first
		}
		if c := slices.Compare(a.charged, b.charged); c != 0 {
			return c < 0
		}
		return a.poss < b.poss
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "beerprof v%d k=%d\n", canonicalVersion, p.K)
	var prev *line
	for i := range lines {
		l := &lines[i]
		if prev != nil && prev.anti == l.anti && prev.poss == l.poss && slices.Equal(prev.charged, l.charged) {
			continue // duplicate observation carries no extra information
		}
		if l.anti {
			sb.WriteString("anti ")
		}
		sb.WriteString(newPattern(l.charged...).String())
		sb.WriteByte(' ')
		sb.WriteString(l.poss)
		sb.WriteByte('\n')
		prev = l
	}
	return []byte(sb.String())
}

// Hash returns the profile's content address: the lowercase hex SHA-256 of
// canonical. Profiles with the same hash impose the same constraints on the
// parity-check matrix, so a solver result cached under the hash replays
// exactly (see SolveCache and internal/store).
func (p *Profile) Hash() string {
	sum := sha256.Sum256(p.canonical())
	return hex.EncodeToString(sum[:])
}

// SolveCache short-circuits the solve stage of Recover: before invoking the
// SAT search, the pipeline asks the cache for a Result previously computed
// for a profile with the same canonical hash, and after a successful search
// it offers the fresh Result back. Implementations must be safe for
// concurrent use; internal/store provides one backed by the durable
// content-addressed code registry.
//
// Results are keyed by the profile alone, not by SolveOptions: callers that
// vary ParityBits or MaxSolutions between runs must not share one cache, or
// a run could replay a result enumerated under different solver limits.
type SolveCache interface {
	// Lookup returns the cached result for the profile's hash, if any.
	Lookup(p *Profile) (*Result, bool)
	// Store records a successful solve for the profile's hash.
	Store(p *Profile, res *Result)
}
