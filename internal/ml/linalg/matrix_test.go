package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows, m.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zero at (%d,%d)", i, j)
			}
		}
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2)=%v, want 4.5", got)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("matmul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	if got := MatMul(a, Identity(4)); !Equal(got, a, 1e-12) {
		t.Fatalf("A·I != A: %v vs %v", got, a)
	}
	if got := MatMul(Identity(4), a); !Equal(got, a, 1e-12) {
		t.Fatalf("I·A != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		return Equal(Transpose(Transpose(m)), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatMulProperty(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randomMatrix(rng, n, k), randomMatrix(rng, k, m)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b); !Equal(got, FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Fatalf("add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Fatalf("sub = %v", got)
	}
	if got := Scale(a, 2); !Equal(got, FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("scale = %v", got)
	}
}

func TestSumMeanMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-1, 2}, {-3, 4}})
	if got := m.Sum(); got != 2 {
		t.Fatalf("sum = %v, want 2", got)
	}
	if got := m.Mean(); got != 0.5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("maxabs = %v, want 4", got)
	}
}

func TestColMeansAndColRow(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 6}})
	cm := ColMeans(m)
	if !Equal(cm, RowVector([]float64{2, 4}), 1e-12) {
		t.Fatalf("colmeans = %v", cm)
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 6 {
		t.Fatalf("col(1) = %v", got)
	}
	r := m.Row(0)
	r[0] = 99 // Row shares storage.
	if m.At(0, 0) != 99 {
		t.Fatal("Row must share backing storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("clone mutated original")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := ColVector([]float64{5, 10})
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x.At(0, 0)-1) > 1e-10 || math.Abs(x.At(1, 0)-3) > 1e-10 {
		t.Fatalf("solve = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, ColVector([]float64{1, 2})); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearRoundTripProperty(t *testing.T) {
	// For random well-conditioned A (diagonally dominated), solve(A, A·x) ≈ x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := randomMatrix(rng, n, 1)
		b := MatMul(a, x)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		return Equal(got, x, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 3 + 2x fits exactly, so LS must recover the coefficients.
	x := FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := ColVector([]float64{3, 5, 7, 9})
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta.At(0, 0)-3) > 1e-6 || math.Abs(beta.At(1, 0)-2) > 1e-6 {
		t.Fatalf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(1, 2), New(1, 1)); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Xᵀ(y − Xβ) ≈ 0 is the defining property of the LS solution.
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 20, 3)
	y := randomMatrix(rng, 20, 1)
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	resid := Sub(y, MatMul(x, beta))
	ortho := MatMul(Transpose(x), resid)
	if ortho.MaxAbs() > 1e-6 {
		t.Fatalf("residual not orthogonal to design: %v", ortho)
	}
}

func TestSolveTridiagonalKnown(t *testing.T) {
	// System: [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] → x = [1 2 3].
	x, err := SolveTridiagonal([]float64{1, 1}, []float64{2, 2, 2}, []float64{1, 1}, []float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveTridiagonalSizeMismatch(t *testing.T) {
	if _, err := SolveTridiagonal([]float64{1}, []float64{2, 2, 2}, []float64{1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestSolveTridiagonalMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		sub := make([]float64, n-1)
		sup := make([]float64, n-1)
		diag := make([]float64, n)
		rhs := make([]float64, n)
		dense := New(n, n)
		for i := 0; i < n; i++ {
			diag[i] = 4 + rng.Float64() // diagonally dominant
			rhs[i] = rng.NormFloat64()
			dense.Set(i, i, diag[i])
		}
		for i := 0; i < n-1; i++ {
			sub[i] = rng.Float64()
			sup[i] = rng.Float64()
			dense.Set(i+1, i, sub[i])
			dense.Set(i, i+1, sup[i])
		}
		tri, err := SolveTridiagonal(sub, diag, sup, rhs)
		if err != nil {
			return false
		}
		dx, err := SolveLinear(dense, ColVector(rhs))
		if err != nil {
			return false
		}
		for i := range tri {
			if math.Abs(tri[i]-dx.At(i, 0)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}
