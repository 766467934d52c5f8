package gf2

import (
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewVecZero(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if !v.Zero() || v.Weight() != 0 {
		t.Fatalf("new vector not zero: %v", v)
	}
}

func TestVecSetGetFlip(t *testing.T) {
	v := NewVec(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		v.Set(i, true)
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after flip", i)
		}
		v.Flip(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after double flip", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Errorf("bit %d still set after clear", i)
		}
	}
}

func TestVecOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	NewVec(8).Get(8)
}

func TestVecFromSupportAndSupport(t *testing.T) {
	v := VecFromSupport(200, 3, 64, 199)
	got := v.Support()
	want := []int{3, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if v.Weight() != 3 {
		t.Errorf("Weight = %d, want 3", v.Weight())
	}
}

func TestVecFromUint(t *testing.T) {
	v := VecFromUint(8, 0b1011)
	if v.String() != "11010000" {
		t.Fatalf("String = %q", v.String())
	}
	if v.Uint64() != 0b1011 {
		t.Fatalf("Uint64 = %#x", v.Uint64())
	}
}

func TestVecXorDotSubset(t *testing.T) {
	a := VecFromBits([]int{1, 0, 1, 1, 0})
	b := VecFromBits([]int{0, 0, 1, 0, 1})
	x := a.Xor(b)
	if x.String() != "10011" {
		t.Fatalf("Xor = %s", x)
	}
	if a.dot(b) != 1 { // overlap at index 2 only
		t.Fatalf("Dot = %d, want 1", a.dot(b))
	}
	if subsetOf(b, a) {
		t.Fatal("b has bit 4 set, a does not; not a subset")
	}
	if !subsetOf(VecFromBits([]int{1, 0, 0, 1, 0}), a) {
		t.Fatal("subset not detected")
	}
}

func TestVecSliceConcat(t *testing.T) {
	v, err := ParseVec("1101001")
	if err != nil {
		t.Fatal(err)
	}
	lo := v.Slice(0, 4)
	hi := v.Slice(4, 7)
	if lo.String() != "1101" || hi.String() != "001" {
		t.Fatalf("Slice = %s / %s", lo, hi)
	}
	if got := lo.Concat(hi); !got.Equal(v) {
		t.Fatalf("Concat = %s, want %s", got, v)
	}
}

func TestParseVecError(t *testing.T) {
	if _, err := ParseVec("10x1"); err == nil {
		t.Fatal("expected error for invalid character")
	}
}

func TestVecCloneIndependence(t *testing.T) {
	v := VecFromSupport(70, 5, 69)
	c := v.Clone()
	c.Flip(5)
	if !v.Get(5) {
		t.Fatal("Clone aliases original storage")
	}
}

// Property: XOR is its own inverse and commutative; weight of xor obeys
// inclusion-exclusion with the AND overlap.
func TestVecXorProperties(t *testing.T) {
	f := func(aBits, bBits uint64) bool {
		a := VecFromUint(64, aBits)
		b := VecFromUint(64, bBits)
		if !a.Xor(b).Xor(b).Equal(a) {
			return false
		}
		if !a.Xor(b).Equal(b.Xor(a)) {
			return false
		}
		overlap := bits.OnesCount64(aBits & bBits)
		return a.Xor(b).Weight() == a.Weight()+b.Weight()-2*overlap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is bilinear: (a^b)·c == (a·c) ^ (b·c).
func TestVecDotBilinear(t *testing.T) {
	f := func(aBits, bBits, cBits uint64) bool {
		a := VecFromUint(64, aBits)
		b := VecFromUint(64, bBits)
		c := VecFromUint(64, cBits)
		return a.Xor(b).dot(c) == a.dot(c)^b.dot(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: subsetOf agrees with the definition on random vectors longer than
// one machine word.
func TestVecSubsetOfDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(180)
		a, b := NewVec(n), NewVec(n)
		for i := 0; i < n; i++ {
			a.Set(i, rng.IntN(2) == 0)
			b.Set(i, rng.IntN(3) == 0)
		}
		want := true
		for i := 0; i < n; i++ {
			if a.Get(i) && !b.Get(i) {
				want = false
				break
			}
		}
		if got := subsetOf(a, b); got != want {
			t.Fatalf("subsetOf mismatch: n=%d got=%v want=%v", n, got, want)
		}
	}
}

// subsetOf reports whether the support of v is contained in the support of u,
// i.e. every set bit of v is also set in u. This is the 1-CHARGED
// miscorrection condition from the BEER analysis (DESIGN.md §4).
func subsetOf(v, u Vec) bool {
	v.sameLen(u)
	for i := range v.w {
		if v.w[i]&^u.w[i] != 0 {
			return false
		}
	}
	return true
}
