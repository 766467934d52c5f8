// Package ecc implements systematic linear block codes over GF(2), focused on
// the single-error-correcting (SEC) Hamming codes that DRAM on-die ECC uses
// (Patel et al., MICRO 2020, §3.3).
//
// A code is represented in standard form: the parity-check matrix is
// H = [P | I] where P is the (n-k) x k block over the data-bit positions and
// I the identity over the parity-bit positions. BEER recovers codes up to
// equivalence, and every equivalence class of a systematic code has exactly
// one standard-form representative (paper §4.2.1), so P fully identifies a
// code in this package.
//
// Entry points: New validates and builds a code from its P block;
// SequentialHamming/BitReversedHamming/RandomHamming construct the families
// the evaluation sweeps (Hamming74 is the paper's Eq. 1 running example);
// Encode/Decode implement the §3.3 system model, with Decode blindly
// flipping the bit whose H column matches the syndrome — the behavior that
// produces miscorrections. Equal compares canonical representatives;
// EquivalentTo compares up to parity-row relabeling (what an external
// observer can distinguish). MarshalText/UnmarshalText are the text form
// stored by internal/store and served by beerd.
package ecc

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/gf2"
)

// Code is a systematic (n, k) linear block code in standard form.
// Codewords are laid out as [d_0 .. d_{k-1} | p_0 .. p_{n-k-1}].
type Code struct {
	n, k int
	p    gf2.Mat // (n-k) x k block of H over the data bits
	h    gf2.Mat // cached H = [P | I]
	// colOf[s] is the codeword bit position whose H column, packed into an
	// integer (bit i = parity row i), equals syndrome s, or -1 when no
	// column does (s = 0, or an unused syndrome of a shortened code). It has
	// 2^(n-k) entries and drives syndrome decoding.
	colOf []int16
	// bits is the precomputed bitsliced batch codec (see Bitsliced).
	bits *BitCodec
}

// ErrNotSEC is wrapped by New when the parity-check block does not describe a
// single-error-correcting code.
var ErrNotSEC = fmt.Errorf("ecc: parity-check matrix is not single-error-correcting")

// MaxParityBits is the most parity-check rows a code may have: syndrome
// decoding looks syndromes up in a 2^r-entry table. On-die ECC designs use
// r <= 8 (k <= 247).
const MaxParityBits = 16

// New builds a code from the P block of a standard-form parity-check matrix
// H = [P | I]. It validates the SEC (minimum distance >= 3) requirements:
// every column of H nonzero and all columns pairwise distinct, which for the
// P block means every column has weight >= 2 and the columns are distinct.
func New(p gf2.Mat) (*Code, error) {
	r, k := p.Rows(), p.Cols()
	if r < 1 || k < 1 {
		return nil, fmt.Errorf("ecc: invalid shape %dx%d for P", r, k)
	}
	if r > MaxParityBits {
		return nil, fmt.Errorf("ecc: %d parity bits exceed the supported maximum of %d", r, MaxParityBits)
	}
	if k+r > math.MaxInt16 {
		return nil, fmt.Errorf("ecc: codeword length %d exceeds the supported maximum of %d", k+r, math.MaxInt16)
	}
	colOf := make([]int16, 1<<r)
	for s := range colOf {
		colOf[s] = -1
	}
	for i := 0; i < r; i++ {
		colOf[1<<i] = int16(k + i) // parity column i of the identity block
	}
	for j := 0; j < k; j++ {
		col := p.Col(j)
		if col.Weight() < 2 {
			return nil, fmt.Errorf("%w: data column %d has weight %d (collides with a parity column or is zero)",
				ErrNotSEC, j, col.Weight())
		}
		key := col.Uint64()
		if prev := colOf[key]; prev >= 0 {
			return nil, fmt.Errorf("%w: data columns %d and %d are identical", ErrNotSEC, prev, j)
		}
		colOf[key] = int16(j)
	}
	c := &Code{n: k + r, k: k, p: p.Clone(), colOf: colOf}
	c.h = c.p.HStack(gf2.Identity(r))
	c.bits = newBitCodec(c)
	return c, nil
}

// MustNew is New, panicking on error; intended for literals in tests and
// examples.
func MustNew(p gf2.Mat) *Code {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the codeword length in bits.
func (c *Code) N() int { return c.n }

// K returns the dataword length in bits.
func (c *Code) K() int { return c.k }

// ParityBits returns n - k.
func (c *Code) ParityBits() int { return c.n - c.k }

// P returns a copy of the data-bit block of the parity-check matrix.
func (c *Code) P() gf2.Mat { return c.p.Clone() }

// H returns a copy of the full standard-form parity-check matrix [P | I].
func (c *Code) H() gf2.Mat { return c.h.Clone() }

// G returns a copy of the standard-form generator matrix [I | P^T] with shape
// k x n, so that a codeword is d * G (equivalently Encode).
func (c *Code) G() gf2.Mat {
	return gf2.Identity(c.k).HStack(c.p.Transpose())
}

// Column returns a copy of column j of H (0 <= j < n).
func (c *Code) Column(j int) gf2.Vec { return c.h.Col(j) }

// FullLength reports whether the code uses every possible nonzero syndrome as
// a column, i.e. n == 2^(n-k) - 1. Non-full-length codes are "shortened"
// (paper §4.2.4) and need the 2-CHARGED patterns for unique recovery.
func (c *Code) FullLength() bool {
	return c.n == len(c.colOf)-1 // 2^r - 1: every nonzero syndrome is a column
}

// Encode expands a k-bit dataword into an n-bit codeword [d | P*d].
func (c *Code) Encode(d gf2.Vec) gf2.Vec {
	if d.Len() != c.k {
		panic(fmt.Sprintf("ecc: Encode dataword length %d, want %d", d.Len(), c.k))
	}
	return d.Concat(c.p.MulVec(d))
}

// Syndrome computes H * c' for a received n-bit codeword.
func (c *Code) Syndrome(cw gf2.Vec) gf2.Vec {
	if cw.Len() != c.n {
		panic(fmt.Sprintf("ecc: Syndrome codeword length %d, want %d", cw.Len(), c.n))
	}
	return c.h.MulVec(cw)
}

// ColumnOfSyndrome returns the codeword bit position whose H column equals
// the syndrome, or -1 when no column matches (possible for shortened codes).
func (c *Code) ColumnOfSyndrome(s gf2.Vec) int {
	if s.Len() != c.n-c.k {
		panic(fmt.Sprintf("ecc: syndrome length %d, want %d", s.Len(), c.n-c.k))
	}
	return c.ColumnOfPackedSyndrome(s.Uint64())
}

// ColumnOfPackedSyndrome is ColumnOfSyndrome for a syndrome packed into a
// uint64 (bit i = parity row i, as BitCodec.Column packs H columns): one
// table load.
func (c *Code) ColumnOfPackedSyndrome(s uint64) int {
	if s < uint64(len(c.colOf)) {
		return int(c.colOf[s])
	}
	return -1
}

// DecodeResult describes one syndrome-decoding pass.
type DecodeResult struct {
	// Data is the post-correction dataword (the first k bits of the
	// post-correction codeword).
	Data gf2.Vec
	// Codeword is the full post-correction codeword.
	Codeword gf2.Vec
	// Syndrome is H * received.
	Syndrome gf2.Vec
	// FlippedBit is the codeword bit position the decoder flipped, or -1 when
	// the syndrome was zero or matched no column.
	FlippedBit int
	// DetectedUnmatched reports a nonzero syndrome matching no H column
	// (only possible for shortened codes); the decoder leaves data unchanged.
	DetectedUnmatched bool
}

// Decode performs single-error syndrome decoding exactly as the paper models
// it (§3.3): compute the syndrome, and if it is nonzero, blindly flip the bit
// whose H column equals the syndrome. If the syndrome matches no column (a
// shortened code observing an uncorrectable error), the decoder performs no
// correction. The decoder never knows the true error count, so uncorrectable
// errors may yield silent corruption, partial correction, or miscorrection.
func (c *Code) Decode(received gf2.Vec) DecodeResult {
	s := c.Syndrome(received)
	res := DecodeResult{Syndrome: s, FlippedBit: -1}
	cw := received.Clone()
	if !s.Zero() {
		if j := c.ColumnOfSyndrome(s); j >= 0 {
			cw.Flip(j)
			res.FlippedBit = j
		} else {
			res.DetectedUnmatched = true
		}
	}
	res.Codeword = cw
	res.Data = cw.Slice(0, c.k)
	return res
}

// Equal reports whether two codes have identical standard-form parity-check
// matrices. Because standard form is a canonical representative of a code's
// equivalence class, this is equality of the externally-visible ECC function.
func (c *Code) Equal(o *Code) bool {
	return o != nil && c.n == o.n && c.k == o.k && c.p.Equal(o.p)
}

// String returns a short human-readable description.
func (c *Code) String() string {
	kind := "shortened"
	if c.FullLength() {
		kind = "full-length"
	}
	return fmt.Sprintf("(%d,%d) SEC Hamming [%s]", c.n, c.k, kind)
}

// MarshalText serializes the code as "n k p\n" followed by the P-block rows
// as bit strings; UnmarshalText reverses it. This lets recovered functions be
// stored or diffed by tooling.
func (c *Code) MarshalText() ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "secham %d %d\n", c.n, c.k)
	for i := 0; i < c.p.Rows(); i++ {
		sb.WriteString(c.p.Row(i).String())
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), nil
}

// UnmarshalText parses the format produced by MarshalText.
func (c *Code) UnmarshalText(text []byte) error {
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("ecc: truncated code text")
	}
	var n, k int
	if _, err := fmt.Sscanf(lines[0], "secham %d %d", &n, &k); err != nil {
		return fmt.Errorf("ecc: bad header %q: %w", lines[0], err)
	}
	if len(lines)-1 != n-k {
		return fmt.Errorf("ecc: expected %d parity rows, got %d", n-k, len(lines)-1)
	}
	rows := make([]gf2.Vec, n-k)
	for i := range rows {
		v, err := gf2.ParseVec(strings.TrimSpace(lines[i+1]))
		if err != nil {
			return fmt.Errorf("ecc: row %d: %w", i, err)
		}
		if v.Len() != k {
			return fmt.Errorf("ecc: row %d has length %d, want %d", i, v.Len(), k)
		}
		rows[i] = v
	}
	parsed, err := New(gf2.MatFromRows(rows...))
	if err != nil {
		return err
	}
	*c = *parsed
	return nil
}

// MinParityBits returns the minimum number of parity bits r such that a SEC
// Hamming code with k data bits exists, i.e. the smallest r with
// 2^r - r - 1 >= k.
func MinParityBits(k int) int {
	if k < 1 {
		panic("ecc: k must be >= 1")
	}
	for r := 2; ; r++ {
		if (uint64(1)<<uint(r))-uint64(r)-1 >= uint64(k) {
			return r
		}
	}
}

// weightOK reports whether x has Hamming weight >= 2 (valid data column).
func weightOK(x uint64) bool { return bits.OnesCount64(x) >= 2 }
