package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatMulIntoMatchesMatMulOverDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n, k, m := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomMatrix(rng, n, k), randomMatrix(rng, k, m)
		a.Data[rng.Intn(len(a.Data))] = 0 // the skipped-zero branch
		out := New(n, m)
		for i := range out.Data {
			out.Data[i] = math.NaN()
		}
		MatMulInto(out, a, b)
		want := MatMul(a, b)
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d element %d: into %v, MatMul %v", trial, i, out.Data[i], want.Data[i])
			}
		}
	}
}

// The transpose-free kernels the tape's MatMul backward runs must agree bit
// for bit with the product over a materialised transpose, zeros in the
// skipped operand and a dirty destination included.
func TestTransposeFreeKernelsMatchMatMulOverTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dirty := func(rows, cols int) *Matrix {
		out := New(rows, cols)
		for i := range out.Data {
			out.Data[i] = math.NaN()
		}
		return out
	}
	same := func(trial int, kernel string, got, want *Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d %s element %d: %v, over the transpose %v", trial, kernel, i, got.Data[i], want.Data[i])
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		n, k, m := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		g, a, b := randomMatrix(rng, n, m), randomMatrix(rng, n, k), randomMatrix(rng, k, m)
		for z := 0; z < 3; z++ { // ReLU-style zeros in the operands whose entries are skipped
			g.Data[rng.Intn(len(g.Data))] = 0
			a.Data[rng.Intn(len(a.Data))] = 0
		}
		nt := dirty(n, k)
		MatMulNTInto(nt, g, b)
		same(trial, "a×bᵀ", nt, MatMul(g, Transpose(b)))
		tn := dirty(k, m)
		MatMulTNInto(tn, a, g)
		same(trial, "aᵀ×b", tn, MatMul(Transpose(a), g))
	}
}

func TestTransposeFreeKernelsShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nt-inner": func() { MatMulNTInto(New(2, 4), New(2, 3), New(4, 5)) },
		"nt-out":   func() { MatMulNTInto(New(2, 2), New(2, 3), New(4, 3)) },
		"tn-inner": func() { MatMulTNInto(New(3, 5), New(2, 3), New(4, 5)) },
		"tn-out":   func() { MatMulTNInto(New(2, 5), New(2, 3), New(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on destination shape mismatch")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

// Matrices handed out before the arena outgrows its backing slice must
// keep their contents, and after one pass the arena must serve another of
// the same shape without allocating.
func TestScratchGrowthKeepsEarlierMatricesAndWarmPassIsAllocFree(t *testing.T) {
	pass := func(sc *Scratch) []*Matrix {
		var ms []*Matrix
		for i := 1; i <= 20; i++ {
			m := sc.Matrix(i, 3)
			for k := range m.Data {
				m.Data[k] = float64(i)
			}
			ms = append(ms, m)
		}
		return ms
	}
	sc := GetScratch()
	defer sc.Release()
	for i, m := range pass(sc) {
		if m.Rows != i+1 || m.Cols != 3 || len(m.Data) != 3*(i+1) {
			t.Fatalf("matrix %d is %dx%d with %d values", i, m.Rows, m.Cols, len(m.Data))
		}
		for _, v := range m.Data {
			if v != float64(i+1) {
				t.Fatalf("matrix %d overwritten: holds %v", i, v)
			}
		}
	}
	sc.Reset() // sized to the pass it just served
	allocs := testing.AllocsPerRun(50, func() {
		sc.Reset()
		for i := 1; i <= 20; i++ {
			sc.Matrix(i, 3)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm scratch pass allocates %.1f times", allocs)
	}
}
