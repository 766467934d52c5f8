package gf2

import (
	"fmt"
	"strings"
)

// Mat is a dense matrix over GF(2), stored row-major as bit vectors.
// The zero value is a 0x0 matrix.
type Mat struct {
	rows, cols int
	r          []Vec
}

// NewMat returns an all-zero rows x cols matrix.
func NewMat(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf2: negative matrix shape %dx%d", rows, cols))
	}
	m := Mat{rows: rows, cols: cols, r: make([]Vec, rows)}
	for i := range m.r {
		m.r[i] = NewVec(cols)
	}
	return m
}

// MatFromRows builds a matrix from row vectors, which must share a length.
// The rows are cloned, so the matrix does not alias the arguments.
func MatFromRows(rows ...Vec) Mat {
	if len(rows) == 0 {
		return Mat{}
	}
	cols := rows[0].Len()
	m := NewMat(len(rows), cols)
	for i, r := range rows {
		if r.Len() != cols {
			panic(fmt.Sprintf("gf2: row %d has length %d, want %d", i, r.Len(), cols))
		}
		m.r[i] = r.Clone()
	}
	return m
}

// MatFromBits builds a matrix from a slice of 0/1 rows.
func MatFromBits(rows [][]int) Mat {
	vs := make([]Vec, len(rows))
	for i, r := range rows {
		vs[i] = VecFromBits(r)
	}
	return MatFromRows(vs...)
}

// Identity returns the n x n identity matrix.
func Identity(n int) Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// Rows returns the number of rows.
func (m Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m Mat) Cols() int { return m.cols }

// Get reports whether entry (i, j) is set.
func (m Mat) Get(i, j int) bool { return m.r[i].Get(j) }

// Set sets entry (i, j) to b.
func (m Mat) Set(i, j int, b bool) { m.r[i].Set(j, b) }

// Row returns row i. The returned vector aliases the matrix storage.
func (m Mat) Row(i int) Vec { return m.r[i] }

// Col returns column j as a new (non-aliasing) vector of length Rows().
func (m Mat) Col(j int) Vec {
	v := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.r[i].Get(j) {
			v.Set(i, true)
		}
	}
	return v
}

// SetCol overwrites column j with v (length must equal Rows()).
func (m Mat) SetCol(j int, v Vec) {
	if v.Len() != m.rows {
		panic(fmt.Sprintf("gf2: SetCol length %d, want %d", v.Len(), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.r[i].Set(j, v.Get(i))
	}
}

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	c := Mat{rows: m.rows, cols: m.cols, r: make([]Vec, m.rows)}
	for i, r := range m.r {
		c.r[i] = r.Clone()
	}
	return c
}

// Equal reports whether m and x have identical shapes and entries.
func (m Mat) Equal(x Mat) bool {
	if m.rows != x.rows || m.cols != x.cols {
		return false
	}
	for i := range m.r {
		if !m.r[i].Equal(x.r[i]) {
			return false
		}
	}
	return true
}

// MulVec returns m * v where v is a column vector of length Cols().
func (m Mat) MulVec(v Vec) Vec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf2: MulVec length %d, want %d", v.Len(), m.cols))
	}
	out := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.r[i].dot(v) == 1 {
			out.Set(i, true)
		}
	}
	return out
}

// transpose returns m^T.
func (m Mat) transpose() Mat {
	t := NewMat(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.r[i]
		for _, j := range row.Support() {
			t.r[j].Set(i, true)
		}
	}
	return t
}

// HStack returns the block matrix [m | x]; row counts must match.
func (m Mat) HStack(x Mat) Mat {
	if m.rows != x.rows {
		panic(fmt.Sprintf("gf2: HStack row mismatch %d vs %d", m.rows, x.rows))
	}
	out := NewMat(m.rows, m.cols+x.cols)
	for i := 0; i < m.rows; i++ {
		out.r[i] = m.r[i].Concat(x.r[i])
	}
	return out
}

// SubMatrix returns a copy of rows [r0,r1) and columns [c0,c1).
func (m Mat) SubMatrix(r0, r1, c0, c1 int) Mat {
	if r0 < 0 || r1 > m.rows || r0 > r1 || c0 < 0 || c1 > m.cols || c0 > c1 {
		panic("gf2: SubMatrix bounds out of range")
	}
	out := NewMat(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		out.r[i-r0] = m.r[i].Slice(c0, c1)
	}
	return out
}

// String renders the matrix with one row of bits per line.
func (m Mat) String() string {
	var sb strings.Builder
	for i, r := range m.r {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
