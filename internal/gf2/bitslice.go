package gf2

import (
	"fmt"
	"sync"
)

// Batch is a bitsliced batch of up to 64 equal-length bit vectors, the
// word-wide formulation of the simulation hot path (DESIGN.md §11). Where a
// Vec packs the *bits of one vector* into words, a Batch transposes: row r is
// a single uint64 whose bit j holds bit r of lane (vector) j. Encoding,
// syndrome computation and correction over 64 independent codewords then
// become one XOR/AND per bit position instead of 64.
//
// Lanes beyond Lanes() ("inactive" lanes of a ragged final batch) must be
// kept zero in every row; LaneMask masks them out of popcounts. A Batch is a
// view over caller-owned storage — see Slab for the reuse discipline.
type Batch struct {
	bits  int
	lanes int
	w     []uint64 // len == bits; row-indexed
}

func checkShape(bitsN, lanes int) {
	if bitsN < 0 {
		panic(fmt.Sprintf("gf2: negative batch bit count %d", bitsN))
	}
	if lanes < 1 || lanes > wordBits {
		panic(fmt.Sprintf("gf2: batch lane count %d out of range [1,64]", lanes))
	}
}

// Bits returns the per-lane vector length (the number of rows).
func (b Batch) Bits() int { return b.bits }

// Lanes returns the number of active lanes (1..64).
func (b Batch) Lanes() int { return b.lanes }

// LaneMask returns a word with one bit set per active lane.
func (b Batch) LaneMask() uint64 {
	if b.lanes == wordBits {
		return ^uint64(0)
	}
	return 1<<uint(b.lanes) - 1
}

// Words returns the backing row words. The slice aliases the batch: writes
// through it mutate the batch, and callers must keep inactive-lane bits zero.
func (b Batch) Words() []uint64 { return b.w }

// PackVec scatters scalar vector v into lane j. v.Len() must equal Bits().
func (b Batch) PackVec(j int, v Vec) {
	if v.Len() != b.bits {
		panic(fmt.Sprintf("gf2: packing length-%d vector into %d-bit batch", v.Len(), b.bits))
	}
	bit := uint64(1) << uint(j)
	for r := 0; r < b.bits; r++ {
		if v.w[r/wordBits]>>(uint(r)%wordBits)&1 == 1 {
			b.w[r] |= bit
		} else {
			b.w[r] &^= bit
		}
	}
}

// UnpackLane gathers lane j into a fresh scalar vector of length Bits().
func (b Batch) UnpackLane(j int) Vec {
	v := NewVec(b.bits)
	for r := 0; r < b.bits; r++ {
		if b.w[r]>>uint(j)&1 == 1 {
			v.w[r/wordBits] |= 1 << (uint(r) % wordBits)
		}
	}
	return v
}

// Slab is a bump allocator for batch rows: one backing array serves every
// Batch a simulation step needs, so per-batch work allocates nothing. The
// ownership rule (DESIGN.md §11) is strict: Alloc returns views into the
// slab, Reset reclaims them all at once, and no view may be used after the
// Reset that reclaimed it. Slabs are not safe for concurrent use; keep one
// per worker (or pool them with sync.Pool).
type Slab struct {
	buf []uint64
	off int
}

// Alloc carves an all-zero bits×lanes Batch out of the slab, growing the
// backing array if needed. Growth never invalidates earlier views: they keep
// their slice headers into the previous backing array.
func (s *Slab) Alloc(bitsN, lanes int) Batch {
	checkShape(bitsN, lanes)
	return Batch{bits: bitsN, lanes: lanes, w: s.Uint64s(bitsN)}
}

// Uint64s carves an all-zero word slice out of the slab — the untyped form
// of Alloc, for scratch arrays that are not batch rows (column masks, bit
// planes, subset enumerations). The returned slice is capacity-clipped, so
// appends within its length never bleed into later carvings; the Reset
// ownership rule applies exactly as for Alloc.
func (s *Slab) Uint64s(n int) []uint64 {
	if n < 0 {
		panic(fmt.Sprintf("gf2: negative slab carving %d", n))
	}
	if s.off+n > len(s.buf) {
		size := 2 * len(s.buf)
		if size < n+s.off {
			size = n + s.off
		}
		if size < 256 {
			size = 256
		}
		s.buf = make([]uint64, size)
		s.off = 0
	}
	w := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	for i := range w {
		w[i] = 0
	}
	return w
}

// Reset reclaims every outstanding view at once. Views handed out before the
// Reset must not be used afterwards: the next Alloc reuses their rows.
func (s *Slab) Reset() { s.off = 0 }

// slabPool recycles Slabs across engine batches and profile computations:
// steady-state work borrows a warm backing array instead of growing a fresh
// one, so per-batch collection stops allocating. Slabs are not safe for
// concurrent use — the pool hands each borrower exclusive ownership until
// PutSlab.
var slabPool = sync.Pool{New: func() any { return new(Slab) }}

// GetSlab borrows a reset Slab from the package pool.
func GetSlab() *Slab {
	s := slabPool.Get().(*Slab)
	s.Reset()
	return s
}

// PutSlab returns a Slab to the pool. The caller must not use the slab, or
// any view carved from it, after the call.
func PutSlab(s *Slab) { slabPool.Put(s) }
