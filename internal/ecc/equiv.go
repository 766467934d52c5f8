package ecc

import (
	"sort"
	"strings"
)

// Code equivalence.
//
// On-die ECC never exposes its parity bits, so two codes that differ only in
// parity-bit labeling are externally indistinguishable (paper §4.2.1,
// §5.4 "Disambiguating equivalent codes"). Within standard form H = [P | I]
// the full residual symmetry is exactly permutation of the parity rows:
// H' = A*H preserves both the codeword set and the syndrome-decode behavior
// for any invertible A, and keeping [A*P | A*Pi] in standard form forces A to
// be a permutation matrix. BEER therefore recovers codes up to this row
// permutation, and this file provides the canonical representative used to
// compare recovered functions against ground truth.

// CanonicalKey returns a string that is identical for exactly the codes in
// the same equivalence class.
func (c *Code) CanonicalKey() string {
	rows := make([]string, c.p.Rows())
	for i := range rows {
		rows[i] = c.p.Row(i).String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "|")
}

// EquivalentTo reports whether two codes are externally indistinguishable:
// identical up to parity-bit relabeling.
func (c *Code) EquivalentTo(o *Code) bool {
	return o != nil && c.n == o.n && c.k == o.k && c.CanonicalKey() == o.CanonicalKey()
}
