package gf2

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

func randVec(n int, rng *rand.Rand) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.IntN(2) == 1)
	}
	return v
}

func TestBatchPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, shape := range []struct{ bits, lanes int }{
		{1, 1}, {7, 3}, {39, 64}, {64, 64}, {130, 17}, {64, 1},
	} {
		b := newBatch(shape.bits, shape.lanes)
		want := make([]Vec, shape.lanes)
		for j := range want {
			want[j] = randVec(shape.bits, rng)
			b.PackVec(j, want[j])
		}
		for j := range want {
			if got := b.UnpackLane(j); !got.Equal(want[j]) {
				t.Fatalf("shape %dx%d lane %d: got %s want %s", shape.bits, shape.lanes, j, got, want[j])
			}
		}
		// Transposition invariant: row r bit j == lane j bit r.
		for r := 0; r < shape.bits; r++ {
			for j := 0; j < shape.lanes; j++ {
				if b.get(r, j) != want[j].Get(r) {
					t.Fatalf("shape %dx%d: get(%d,%d) mismatch", shape.bits, shape.lanes, r, j)
				}
			}
		}
	}
}

func TestBatchLaneMask(t *testing.T) {
	if got := newBatch(4, 64).LaneMask(); got != ^uint64(0) {
		t.Fatalf("full mask: got %#x", got)
	}
	if got := newBatch(4, 3).LaneMask(); got != 0b111 {
		t.Fatalf("3-lane mask: got %#x", got)
	}
}

func TestBatchPopRow(t *testing.T) {
	b := newBatch(2, 5)
	b.set(0, 1, true)
	b.set(0, 4, true)
	b.set(1, 0, true)
	if got := b.popRow(0); got != 2 {
		t.Fatalf("row 0 popcount: got %d want 2", got)
	}
	if got := b.popRow(1); got != 1 {
		t.Fatalf("row 1 popcount: got %d want 1", got)
	}
}

func TestBatchSetClears(t *testing.T) {
	b := newBatch(1, 2)
	b.set(0, 1, true)
	b.set(0, 1, false)
	if b.get(0, 1) {
		t.Fatal("set(false) did not clear the bit")
	}
}

func TestSlabAllocZeroesReusedRows(t *testing.T) {
	var s Slab
	a := s.Alloc(10, 8)
	for r := 0; r < 10; r++ {
		a.Words()[r] = ^uint64(0)
	}
	s.Reset()
	b := s.Alloc(10, 8)
	for r := 0; r < 10; r++ {
		if b.w[r] != 0 {
			t.Fatalf("row %d not zeroed after slab reuse", r)
		}
	}
}

func TestSlabGrowthKeepsOldViews(t *testing.T) {
	var s Slab
	a := s.Alloc(4, 2)
	a.set(0, 1, true)
	// Force growth past the initial chunk.
	for i := 0; i < 8; i++ {
		s.Alloc(300, 64)
	}
	if !a.get(0, 1) {
		t.Fatal("growth invalidated an earlier view")
	}
}

func TestSlabAllocDoesNotAllocateAfterWarmup(t *testing.T) {
	var s Slab
	s.Alloc(512, 64)
	s.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		b := s.Alloc(512, 64)
		_ = b.w[0]
	})
	if allocs != 0 {
		t.Fatalf("warm slab alloc allocated %v times per run", allocs)
	}
}

func TestVecWordsAlias(t *testing.T) {
	v := NewVec(70)
	v.Words()[1] = 1 // bit 64
	if !v.Get(64) {
		t.Fatal("Words() write not visible through Get")
	}
	u := NewVec(70)
	u.Set(3, true)
	v.CopyFrom(u)
	if !v.Equal(u) {
		t.Fatal("CopyFrom mismatch")
	}
}

// newBatch returns an all-zero batch of the given shape with fresh storage.
func newBatch(bitsN, lanes int) Batch {
	checkShape(bitsN, lanes)
	return Batch{bits: bitsN, lanes: lanes, w: make([]uint64, bitsN)}
}

// get reports whether bit r of lane j is set.
func (b Batch) get(r, j int) bool {
	b.checkAt(r, j)
	return b.w[r]>>uint(j)&1 == 1
}

// set sets bit r of lane j.
func (b Batch) set(r, j int, bit bool) {
	b.checkAt(r, j)
	if bit {
		b.w[r] |= 1 << uint(j)
	} else {
		b.w[r] &^= 1 << uint(j)
	}
}

func (b Batch) checkAt(r, j int) {
	if r < 0 || r >= b.bits {
		panic(fmt.Sprintf("gf2: batch row %d out of range [0,%d)", r, b.bits))
	}
	if j < 0 || j >= b.lanes {
		panic(fmt.Sprintf("gf2: batch lane %d out of range [0,%d)", j, b.lanes))
	}
}

// popRow returns the number of active lanes whose bit r is set.
func (b Batch) popRow(r int) int {
	return bits.OnesCount64(b.w[r] & b.LaneMask())
}
