// Package linalg provides the dense matrix and vector primitives used by
// every model in this repository. It is deliberately small: row-major dense
// matrices backed by a single float64 slice, with the handful of operations
// (matmul, transpose, elementwise sums, reductions, linear solves) that
// gradient-boosted trees, neural networks and graph networks need.
//
// All operations validate shapes and panic on mismatch: a shape error is a
// programming bug in the caller, never a recoverable runtime condition.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero-valued Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix copying the given rows, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// RowVector returns a 1 x n matrix copying v.
func RowVector(v []float64) *Matrix {
	m := New(1, len(v))
	copy(m.Data, v)
	return m
}

// ColVector returns an n x 1 matrix copying v.
func ColVector(v []float64) *Matrix {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice sharing m's backing storage.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns column j as a freshly allocated slice.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.Rows, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool {
	return m.Rows == n.Rows && m.Cols == n.Cols
}

// String renders a compact human-readable form, useful in tests.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// MatMul returns a×b. Panics if inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	matMulAcc(out, a, b)
	return out
}

// MatMulInto overwrites out with a×b; out must be a.Rows x b.Cols and
// alias neither operand. It runs the loop MatMul runs, so the two agree
// bit for bit.
func MatMulInto(out, a, b *Matrix) {
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: matmul into %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	clear(out.Data)
	matMulAcc(out, a, b)
}

// matMulAcc accumulates a×b into out, which the caller has zeroed.
func matMulAcc(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulNTInto overwrites out with a×bᵀ without materialising the
// transpose; out must be a.Rows x b.Rows and alias neither operand. Every
// element sums its products in the k-order, and with the skip of zero a
// entries, that MatMul(a, Transpose(b)) uses, so the two agree bit for bit.
func MatMulNTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: matmul shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: matmul into %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := range orow {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// MatMulTNInto overwrites out with aᵀ×b without materialising the
// transpose; out must be a.Cols x b.Cols and alias neither operand. It
// agrees bit for bit with MatMul(Transpose(a), b): the same products reach
// every element in the same k-order, zero a entries skipped.
func MatMulTNInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: matmul shape mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: matmul into %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	clear(out.Data)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	requireSameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a−b elementwise.
func Sub(a, b *Matrix) *Matrix {
	requireSameShape("sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s·m.
func Scale(m *Matrix, s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range out.Data {
		out.Data[i] = m.Data[i] * s
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ColMeans returns a 1 x Cols matrix of per-column means.
func ColMeans(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	if m.Rows == 0 {
		return out
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j] += m.Data[i*m.Cols+j]
		}
	}
	for j := range out.Data {
		out.Data[j] /= float64(m.Rows)
	}
	return out
}

// Equal reports whether a and b agree elementwise within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func requireSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
