package nn

import (
	"math"
	"math/rand"
	"testing"

	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
)

func TestActivationApplyAndString(t *testing.T) {
	tape := autodiff.NewTape()
	x := tape.Const(linalg.FromRows([][]float64{{-1, 2}}))
	relu := ActReLU.Apply(x)
	if relu.Value.Data[0] != 0 || relu.Value.Data[1] != 2 {
		t.Fatalf("relu = %v", relu.Value)
	}
	tanh := ActTanh.Apply(x)
	if math.Abs(tanh.Value.Data[0]-math.Tanh(-1)) > 1e-12 {
		t.Fatalf("tanh = %v", tanh.Value)
	}
	ident := ActIdentity.Apply(x)
	if ident != x {
		t.Fatal("identity must pass through")
	}
	for _, a := range []Activation{ActIdentity, ActReLU, ActTanh} {
		if a.String() == "" {
			t.Fatal("empty activation name")
		}
	}
}

func TestNewDenseShapesAndInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 10, 5, ActReLU)
	if d.W.Rows != 10 || d.W.Cols != 5 || d.B.Rows != 1 || d.B.Cols != 5 {
		t.Fatalf("shapes W=%dx%d B=%dx%d", d.W.Rows, d.W.Cols, d.B.Rows, d.B.Cols)
	}
	for _, b := range d.B.Data {
		if b != 0 {
			t.Fatal("bias must init to zero")
		}
	}
	var nonzero int
	for _, w := range d.W.Data {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero < 40 {
		t.Fatal("weights look unintialized")
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(rand.New(rand.NewSource(1)), 0, 3, ActReLU)
}

func TestMLPParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, []int{53, 32, 32, 2}, ActReLU)
	want := 53*32 + 32 + 32*32 + 32 + 32*2 + 2
	if got := m.NumParams(); got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
	if len(m.Params()) != 6 {
		t.Fatalf("param tensors %d, want 6", len(m.Params()))
	}
}

func TestMLPNeedsTwoDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), []int{4}, ActReLU)
}

func TestMLPPredictShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, []int{4, 8, 2}, ActTanh)
	x := linalg.New(7, 4)
	out := m.Predict(x)
	if out.Rows != 7 || out.Cols != 2 {
		t.Fatalf("predict shape %dx%d", out.Rows, out.Cols)
	}
}

func TestMLPLearnsLinearFunction(t *testing.T) {
	// y = 2x₀ − 3x₁ + 1 is learnable quickly by a small MLP with Adam.
	rng := rand.New(rand.NewSource(4))
	n := 256
	x := linalg.New(n, 2)
	y := linalg.New(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 2*a-3*b+1)
	}
	m := NewMLP(rng, []int{2, 16, 1}, ActReLU)
	opt := NewAdam(0.01)
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		tape := autodiff.NewTape()
		out, pn := m.Forward(tape, tape.Const(x))
		diff := autodiff.Sub(out, tape.Const(y))
		l := autodiff.Mean(autodiff.Mul(diff, diff))
		autodiff.Backward(l)
		opt.Step(m.Params(), GradsOf(pn))
		loss = l.Value.Data[0]
	}
	if loss > 0.01 {
		t.Fatalf("MLP failed to learn linear fn: final MSE %v", loss)
	}
}

func TestAdamStepMismatchPanics(t *testing.T) {
	opt := NewAdam(0.01)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	opt.Step([]*linalg.Matrix{linalg.New(1, 1)}, nil)
}

func TestAdamSkipsNilGrads(t *testing.T) {
	opt := NewAdam(0.1)
	p := linalg.FromRows([][]float64{{5}})
	opt.Step([]*linalg.Matrix{p}, []*linalg.Matrix{nil})
	if p.Data[0] != 5 {
		t.Fatal("nil grad must not update the parameter")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (p−3)² directly through the tape.
	p := linalg.FromRows([][]float64{{-4}})
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		tape := autodiff.NewTape()
		pn := tape.Param(p)
		diff := autodiff.AddScalar(pn, -3)
		autodiff.Backward(autodiff.Sum(autodiff.Mul(diff, diff)))
		opt.Step([]*linalg.Matrix{p}, []*linalg.Matrix{pn.Grad})
	}
	if math.Abs(p.Data[0]-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", p.Data[0])
	}
}

func TestGradsOfAlignment(t *testing.T) {
	tape := autodiff.NewTape()
	a := tape.Param(linalg.FromRows([][]float64{{2}}))
	b := tape.Param(linalg.FromRows([][]float64{{7}})) // unused
	autodiff.Backward(autodiff.Sum(autodiff.Mul(a, a)))
	grads := GradsOf([]*autodiff.Node{a, b})
	if grads[0] == nil || grads[0].Data[0] != 4 {
		t.Fatalf("grad a = %v", grads[0])
	}
	if grads[1] != nil {
		t.Fatal("unused param must have nil grad")
	}
}

// Infer is the inference path and Forward the training path; a prediction
// must not depend on which one produced it, to the last bit, for every
// activation and for batches as well as single rows.
func TestInferMatchesTapeForwardBitForBit(t *testing.T) {
	for _, act := range []Activation{ActIdentity, ActReLU, ActTanh} {
		rng := rand.New(rand.NewSource(11))
		m := NewMLP(rng, []int{5, 16, 16, 2}, act)
		for _, rows := range []int{1, 7} {
			x := linalg.New(rows, 5)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			x.Data[0] = 0 // MatMul skips zero multiplicands
			tape := autodiff.NewTape()
			want, _ := m.Forward(tape, tape.Const(x))
			sc := linalg.GetScratch()
			got := m.Infer(sc, x)
			pred := m.Predict(x)
			for i, w := range want.Value.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) || math.Float64bits(pred.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%s, %d rows, output %d: Infer %v, Predict %v, tape %v", act, rows, i, got.Data[i], pred.Data[i], w)
				}
			}
			sc.Release()
		}
	}
}
