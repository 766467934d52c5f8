// Package gf2 implements linear algebra over GF(2), the two-element field.
//
// Vectors and matrices are bit-packed (64 bits per machine word), which keeps
// the hot paths of ECC encoding/decoding and miscorrection-profile analysis
// cheap: XOR of two vectors is a handful of word operations, and a dot
// product is an AND followed by a population-count parity.
//
// The package is the foundation for internal/ecc (linear block codes) and
// internal/core (BEER's parity-check matrix inference).
//
// Entry points: NewVec/ParseVec and NewMat/MatFromRows construct values;
// Vec.String renders the bit-string form that flows through ecc's text
// serialization, the store's export format and the profile's canonical
// hash, so its rendering ("0"/"1", index 0 first) is effectively a wire
// format and must stay stable. Vectors and matrices are mutable; functions
// here return fresh values and never alias their inputs unless documented
// (Clone exists for defensive copies).
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a bit vector over GF(2) with a fixed length.
// The zero value is an empty (length-0) vector.
type Vec struct {
	n int
	w []uint64
}

const wordBits = 64

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// NewVec returns an all-zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic(fmt.Sprintf("gf2: negative vector length %d", n))
	}
	return Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// VecFromBits builds a vector from a slice of 0/1 values.
func VecFromBits(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// VecFromSupport builds a length-n vector whose set bits are the given indices.
func VecFromSupport(n int, support ...int) Vec {
	v := NewVec(n)
	for _, i := range support {
		v.Set(i, true)
	}
	return v
}

// VecFromUint packs the low n bits of x (bit 0 = index 0) into a vector.
func VecFromUint(n int, x uint64) Vec {
	if n > wordBits {
		panic("gf2: VecFromUint supports at most 64 bits")
	}
	v := NewVec(n)
	if n == 0 {
		return v
	}
	mask := ^uint64(0)
	if n < wordBits {
		mask = (1 << uint(n)) - 1
	}
	v.w[0] = x & mask
	return v
}

// Len returns the vector length in bits.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.w[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.check(i)
	v.w[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// Zero reports whether every bit is clear.
func (v Vec) Zero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Weight returns the Hamming weight (number of set bits).
func (v Vec) Weight() int {
	w := 0
	for _, x := range v.w {
		w += bits.OnesCount64(x)
	}
	return w
}

// Equal reports whether v and u have the same length and bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// XorInto sets v = v XOR u. Lengths must match.
func (v Vec) XorInto(u Vec) {
	v.sameLen(u)
	for i := range v.w {
		v.w[i] ^= u.w[i]
	}
}

// Xor returns v XOR u as a new vector.
func (v Vec) Xor(u Vec) Vec {
	c := v.Clone()
	c.XorInto(u)
	return c
}

// dot returns the GF(2) inner product of v and u (parity of AND).
func (v Vec) dot(u Vec) int {
	v.sameLen(u)
	var acc uint64
	for i := range v.w {
		acc ^= v.w[i] & u.w[i]
	}
	return bits.OnesCount64(acc) & 1
}

// Support returns the indices of all set bits in increasing order.
func (v Vec) Support() []int {
	var s []int
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s = append(s, wi*wordBits+b)
			w &= w - 1
		}
	}
	return s
}

// Slice returns a copy of bits [lo, hi) as a new vector of length hi-lo.
func (v Vec) Slice(lo, hi int) Vec {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("gf2: bad slice [%d,%d) of length-%d vector", lo, hi, v.n))
	}
	out := NewVec(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// Concat returns the concatenation v || u.
func (v Vec) Concat(u Vec) Vec {
	out := NewVec(v.n + u.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			out.Set(i, true)
		}
	}
	for i := 0; i < u.n; i++ {
		if u.Get(i) {
			out.Set(v.n+i, true)
		}
	}
	return out
}

// Words returns the backing words of v: bit i lives at word i/64, bit i%64.
// The slice aliases v — writes through it mutate the vector. Callers must
// keep bits at positions >= Len() zero; every other method relies on that.
// This is the hot-path escape hatch for the bitsliced batch code; prefer
// Get/Set elsewhere.
func (v Vec) Words() []uint64 { return v.w }

// CopyFrom overwrites v with the bits of u. Lengths must match.
func (v Vec) CopyFrom(u Vec) {
	v.sameLen(u)
	copy(v.w, u.w)
}

// Uint64 returns the vector packed into a uint64 (bit 0 = index 0).
// Panics if the vector is longer than 64 bits.
func (v Vec) Uint64() uint64 {
	if v.n > wordBits {
		panic(fmt.Sprintf("gf2: Uint64 on length-%d vector", v.n))
	}
	if len(v.w) == 0 {
		return 0
	}
	return v.w[0]
}

// String renders the vector as a bit string, index 0 leftmost, e.g. "1011".
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseVec parses a bit string produced by Vec.String ("0"/"1" characters).
func ParseVec(s string) (Vec, error) {
	v := NewVec(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("gf2: invalid bit character %q at %d", s[i], i)
		}
	}
	return v, nil
}

func (v Vec) sameLen(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, u.n))
	}
}
