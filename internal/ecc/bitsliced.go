package ecc

import (
	"fmt"

	"repro/internal/gf2"
)

// BitCodec is the bitsliced (batch) form of a Code: it encodes, computes
// syndromes for, and decodes 64 independent codewords per word operation,
// using the gf2.Batch lane layout (DESIGN.md §11). Row r of a batch packs bit
// r of every lane, so one parity bit of all 64 codewords is a handful of
// XORs, and syndrome matching against an H column is r AND/ANDNOT operations
// regardless of lane count.
//
// The codec is immutable and safe for concurrent use; every Code carries one
// (see Code.Bitsliced). The scalar Encode/Decode on Code remain the reference
// implementation — FuzzBitsliced in this package holds the two bit-identical.
type BitCodec struct {
	n, k, r int
	// cols[j] is H column j packed into a uint64 (bit i = row i), the
	// syndrome that makes the decoder flip bit j.
	cols []uint64
	// dataSupport[i] lists the data-bit positions in parity row i of P;
	// parity row i of H additionally covers parity bit k+i.
	dataSupport [][]int
}

func newBitCodec(c *Code) *BitCodec {
	bc := &BitCodec{
		n:           c.n,
		k:           c.k,
		r:           c.n - c.k,
		cols:        make([]uint64, c.n),
		dataSupport: make([][]int, c.n-c.k),
	}
	for j := 0; j < c.n; j++ {
		bc.cols[j] = c.h.Col(j).Uint64()
	}
	for i := range bc.dataSupport {
		bc.dataSupport[i] = c.p.Row(i).Support()
	}
	return bc
}

// Bitsliced returns the batch codec for c. The codec is built once per Code
// and shared; it is safe for concurrent use.
func (c *Code) Bitsliced() *BitCodec { return c.bits }

// N returns the codeword length in bits.
func (bc *BitCodec) N() int { return bc.n }

// K returns the dataword length in bits.
func (bc *BitCodec) K() int { return bc.k }

// ParityBits returns n - k.
func (bc *BitCodec) ParityBits() int { return bc.r }

// Column returns H column j packed into a uint64 (bit i = parity row i).
func (bc *BitCodec) Column(j int) uint64 { return bc.cols[j] }

// Encode fills cw (n rows) from data (k rows): the data rows are copied and
// each parity row becomes the XOR of its P-row support, for all lanes at
// once. data and cw must have the same lane count.
func (bc *BitCodec) Encode(data, cw gf2.Batch) {
	bc.checkShape("Encode data", data, bc.k)
	bc.checkShape("Encode codeword", cw, bc.n)
	bc.sameLanes(data, cw)
	dw, cww := data.Words(), cw.Words()
	copy(cww[:bc.k], dw)
	for i, supp := range bc.dataSupport {
		var acc uint64
		for _, j := range supp {
			acc ^= dw[j]
		}
		cww[bc.k+i] = acc
	}
}

// syndrome fills synd (n-k rows) with H * cw for every lane of cw (n rows).
func (bc *BitCodec) Syndrome(cw, synd gf2.Batch) {
	bc.checkShape("Syndrome codeword", cw, bc.n)
	bc.checkShape("Syndrome", synd, bc.r)
	bc.sameLanes(cw, synd)
	cww, sw := cw.Words(), synd.Words()
	for i, supp := range bc.dataSupport {
		acc := cww[bc.k+i]
		for _, j := range supp {
			acc ^= cww[j]
		}
		sw[i] = acc
	}
}

// BatchDecode summarizes one batch decoding pass as per-lane masks.
type BatchDecode struct {
	// SyndromeNonzero marks lanes whose syndrome was nonzero (an error was
	// detected, correctly or not).
	SyndromeNonzero uint64
	// FlippedAny marks lanes where the decoder flipped some codeword bit.
	// SyndromeNonzero &^ FlippedAny are the detected-unmatched lanes
	// (shortened codes only).
	FlippedAny uint64
	// FlippedErr marks lanes where the flipped bit was one of the injected
	// error positions in errMask (only tracked when errMask != nil).
	FlippedErr uint64
}

// Decode performs syndrome decoding in place on cw given its precomputed
// syndrome batch: for each codeword position, the lanes whose syndrome
// equals that H column get the bit flipped — the same blind single-error
// correction as Code.Decode, 64 lanes at a time. errMask, when non-nil, must
// be the n row words of the injected-error batch; it feeds FlippedErr so
// callers can classify partial corrections vs miscorrections without
// unpacking lanes.
func (bc *BitCodec) Decode(cw, synd gf2.Batch, errMask []uint64) BatchDecode {
	bc.checkShape("Decode codeword", cw, bc.n)
	bc.checkShape("Decode syndrome", synd, bc.r)
	bc.sameLanes(cw, synd)
	sw := synd.Words()
	var nz uint64
	for _, s := range sw {
		nz |= s
	}
	nz &= cw.LaneMask()
	res := BatchDecode{SyndromeNonzero: nz}
	if nz == 0 {
		return res
	}
	cww := cw.Words()
	for j := 0; j < bc.n; j++ {
		// A lane matches column j iff its syndrome agrees with the column
		// at every parity row. Start from the nonzero-syndrome lanes: every
		// H column is nonzero, so zero-syndrome lanes can never match.
		m := nz
		col := bc.cols[j]
		for i := 0; i < bc.r; i++ {
			if col>>uint(i)&1 == 1 {
				m &= sw[i]
			} else {
				m &^= sw[i]
			}
			if m == 0 {
				break
			}
		}
		if m == 0 {
			continue
		}
		cww[j] ^= m
		res.FlippedAny |= m
		if errMask != nil {
			res.FlippedErr |= m & errMask[j]
		}
	}
	return res
}

func (bc *BitCodec) checkShape(what string, b gf2.Batch, bits int) {
	if b.Bits() != bits {
		panic(fmt.Sprintf("ecc: %s batch has %d rows, want %d", what, b.Bits(), bits))
	}
}

func (bc *BitCodec) sameLanes(a, b gf2.Batch) {
	if a.Lanes() != b.Lanes() {
		panic(fmt.Sprintf("ecc: batch lane mismatch %d vs %d", a.Lanes(), b.Lanes()))
	}
}
