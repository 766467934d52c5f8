package gf2

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.IntN(2) == 1)
		}
	}
	return m
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(9)
	v := VecFromSupport(9, 0, 4, 8)
	if !id.MulVec(v).Equal(v) {
		t.Fatal("I*v != v")
	}
	if !mul(id, id).Equal(id) {
		t.Fatal("I*I != I")
	}
}

func TestMatColAndSetCol(t *testing.T) {
	m := MatFromBits([][]int{
		{1, 0, 1},
		{0, 1, 1},
	})
	c := m.Col(2)
	if c.String() != "11" {
		t.Fatalf("Col = %s", c)
	}
	m.SetCol(0, VecFromBits([]int{0, 1}))
	if m.Get(0, 0) || !m.Get(1, 0) {
		t.Fatal("SetCol did not take effect")
	}
}

func TestMatTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 50; trial++ {
		m := randMat(rng, 1+rng.IntN(20), 1+rng.IntN(90))
		if !m.transpose().transpose().Equal(m) {
			t.Fatal("transpose is not an involution")
		}
	}
}

func TestMatMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		a := randMat(rng, 1+rng.IntN(8), 1+rng.IntN(8))
		b := randMat(rng, a.Cols(), 1+rng.IntN(8))
		c := randMat(rng, b.Cols(), 1+rng.IntN(8))
		if !mul(mul(a, b), c).Equal(mul(a, mul(b, c))) {
			t.Fatal("matrix product is not associative")
		}
	}
}

func TestMatMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		a := randMat(rng, 1+rng.IntN(10), 1+rng.IntN(10))
		x := randMat(rng, a.Cols(), 1)
		viaMat := mul(a, x).Col(0)
		viaVec := a.MulVec(x.Col(0))
		if !viaMat.Equal(viaVec) {
			t.Fatal("MulVec disagrees with Mul")
		}
	}
}

func TestVecMulIsRowCombination(t *testing.T) {
	m := MatFromBits([][]int{
		{1, 0, 0, 1},
		{0, 1, 0, 1},
		{0, 0, 1, 1},
	})
	sel := VecFromBits([]int{1, 0, 1})
	got := vecMul(m, sel)
	want := m.Row(0).Xor(m.Row(2))
	if !got.Equal(want) {
		t.Fatalf("VecMul = %s, want %s", got, want)
	}
}

func TestHStackSubMatrix(t *testing.T) {
	a := MatFromBits([][]int{{1, 0}, {0, 1}})
	b := MatFromBits([][]int{{1, 1, 1}, {0, 0, 1}})
	s := a.HStack(b)
	if s.Rows() != 2 || s.Cols() != 5 {
		t.Fatalf("HStack shape %dx%d", s.Rows(), s.Cols())
	}
	if !s.SubMatrix(0, 2, 0, 2).Equal(a) || !s.SubMatrix(0, 2, 2, 5).Equal(b) {
		t.Fatal("SubMatrix does not recover blocks")
	}
}

func TestRREFRankProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 60; trial++ {
		m := randMat(rng, 1+rng.IntN(12), 1+rng.IntN(12))
		r, pivots := m.rref()
		if len(pivots) != rank(m) {
			t.Fatal("pivot count != rank")
		}
		// Pivot columns must be unit columns in the RREF.
		for i, p := range pivots {
			col := r.Col(p)
			if col.Weight() != 1 || !col.Get(i) {
				t.Fatalf("pivot column %d not a unit vector: %s", p, col)
			}
		}
		// Rank is invariant under transpose.
		if rank(m) != rank(m.transpose()) {
			t.Fatal("rank(m) != rank(m^T)")
		}
	}
}

func TestSolveConsistentSystems(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 80; trial++ {
		m := randMat(rng, 1+rng.IntN(12), 1+rng.IntN(12))
		want := NewVec(m.Cols())
		for j := 0; j < m.Cols(); j++ {
			want.Set(j, rng.IntN(2) == 1)
		}
		b := m.MulVec(want)
		x, ok := m.Solve(b)
		if !ok {
			t.Fatal("consistent system reported unsolvable")
		}
		if !m.MulVec(x).Equal(b) {
			t.Fatal("Solve returned a non-solution")
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	// x + y = 0 and x + y = 1 simultaneously.
	m := MatFromBits([][]int{{1, 1}, {1, 1}})
	b := VecFromBits([]int{0, 1})
	if _, ok := m.Solve(b); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestNullSpace(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 60; trial++ {
		m := randMat(rng, 1+rng.IntN(10), 1+rng.IntN(14))
		basis := m.NullSpace()
		if len(basis) != m.Cols()-rank(m) {
			t.Fatalf("kernel dimension %d, want %d", len(basis), m.Cols()-rank(m))
		}
		for _, v := range basis {
			if !m.MulVec(v).Zero() {
				t.Fatal("null space vector not annihilated")
			}
			if v.Zero() {
				t.Fatal("zero vector in null space basis")
			}
		}
		// Basis must be linearly independent.
		if len(basis) > 0 && rank(MatFromRows(basis...)) != len(basis) {
			t.Fatal("null space basis is linearly dependent")
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	found := 0
	for trial := 0; trial < 200 && found < 40; trial++ {
		n := 1 + rng.IntN(10)
		m := randMat(rng, n, n)
		inv, ok := inverse(m)
		if !ok {
			if rank(m) == n {
				t.Fatal("full-rank matrix reported singular")
			}
			continue
		}
		found++
		if !mul(m, inv).Equal(Identity(n)) || !mul(inv, m).Equal(Identity(n)) {
			t.Fatal("inverse is wrong")
		}
	}
	if found == 0 {
		t.Fatal("no invertible matrices sampled; test is vacuous")
	}
}

func TestMatFromRowsCloning(t *testing.T) {
	r := VecFromSupport(4, 1)
	m := MatFromRows(r)
	r.Flip(1)
	if !m.Get(0, 1) {
		t.Fatal("MatFromRows aliases caller storage")
	}
}

func TestMatStringRoundTrip(t *testing.T) {
	m := MatFromBits([][]int{{1, 0, 1}, {0, 1, 1}})
	if m.String() != "101\n011" {
		t.Fatalf("String = %q", m.String())
	}
}

// mul returns the matrix product m * x.
func mul(m, x Mat) Mat {
	if m.cols != x.rows {
		panic(fmt.Sprintf("gf2: mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, x.rows, x.cols))
	}
	out := NewMat(m.rows, x.cols)
	for i := 0; i < m.rows; i++ {
		out.r[i] = vecMul(x, m.r[i])
	}
	return out
}

// rank returns the rank of m over GF(2).
func rank(m Mat) int {
	_, pivots := m.rref()
	return len(pivots)
}

// vecMul returns v^T * m (a row vector times the matrix), i.e. the XOR of the
// rows of m selected by the set bits of v. v must have length Rows().
func vecMul(m Mat, v Vec) Vec {
	if v.Len() != m.rows {
		panic(fmt.Sprintf("gf2: vecMul length %d, want %d", v.Len(), m.rows))
	}
	out := NewVec(m.cols)
	for _, i := range v.Support() {
		out.XorInto(m.r[i])
	}
	return out
}

// inverse returns the inverse of a square matrix, reporting ok=false when m
// is singular.
func inverse(m Mat) (Mat, bool) {
	if m.rows != m.cols {
		panic("gf2: inverse of non-square matrix")
	}
	aug := m.HStack(Identity(m.rows))
	r, pivots := aug.rref()
	if len(pivots) != m.rows {
		return Mat{}, false
	}
	for i, p := range pivots {
		if p != i {
			return Mat{}, false // pivot escaped the left block: singular
		}
	}
	return r.SubMatrix(0, m.rows, m.cols, 2*m.cols), true
}
