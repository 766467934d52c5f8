package gf2

// This file implements Gaussian elimination and the derived operations (rank,
// reduced row-echelon form, linear solves, null spaces). They back the ECC
// package's generator/parity-check manipulation and BEEP's Equation-4 solve
// for pre-correction codewords.

// rref returns the reduced row-echelon form of m together with the pivot
// column indices (one per nonzero row of the result, in increasing order).
func (m Mat) rref() (Mat, []int) {
	a := m.Clone()
	var pivots []int
	row := 0
	for col := 0; col < a.cols && row < a.rows; col++ {
		// Find a pivot at or below row.
		sel := -1
		for i := row; i < a.rows; i++ {
			if a.r[i].Get(col) {
				sel = i
				break
			}
		}
		if sel == -1 {
			continue
		}
		a.r[row], a.r[sel] = a.r[sel], a.r[row]
		// Eliminate the column everywhere else.
		for i := 0; i < a.rows; i++ {
			if i != row && a.r[i].Get(col) {
				a.r[i].XorInto(a.r[row])
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return a, pivots
}

// Solve finds one solution x of m * x = b, reporting ok=false when the system
// is inconsistent. When the system is underdetermined the free variables are
// set to zero.
func (m Mat) Solve(b Vec) (x Vec, ok bool) {
	if b.Len() != m.rows {
		panic("gf2: Solve dimension mismatch")
	}
	aug := m.HStack(MatFromRows(b).transpose())
	r, pivots := aug.rref()
	x = NewVec(m.cols)
	for i, p := range pivots {
		if p == m.cols {
			return Vec{}, false // pivot in the augmented column: inconsistent
		}
		if r.r[i].Get(m.cols) {
			x.Set(p, true)
		}
	}
	return x, true
}

// NullSpace returns a basis of the right null space of m (vectors x with
// m * x = 0). The returned slice is empty when the kernel is trivial.
func (m Mat) NullSpace() []Vec {
	r, pivots := m.rref()
	isPivot := make([]bool, m.cols)
	for _, p := range pivots {
		isPivot[p] = true
	}
	var basis []Vec
	for col := 0; col < m.cols; col++ {
		if isPivot[col] {
			continue
		}
		v := NewVec(m.cols)
		v.Set(col, true)
		for i, p := range pivots {
			if r.r[i].Get(col) {
				v.Set(p, true)
			}
		}
		basis = append(basis, v)
	}
	return basis
}
