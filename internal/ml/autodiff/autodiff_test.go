package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"tasq/internal/ml/linalg"
)

// numericalGrad estimates ∂f/∂p by central differences, where f rebuilds
// the computation from scratch on every call (p is mutated in place).
func numericalGrad(p *linalg.Matrix, f func() float64) *linalg.Matrix {
	const h = 1e-6
	g := linalg.New(p.Rows, p.Cols)
	for i := range p.Data {
		orig := p.Data[i]
		p.Data[i] = orig + h
		fp := f()
		p.Data[i] = orig - h
		fm := f()
		p.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad compares the analytical gradient of a scalar-valued graph
// builder against numerical differentiation for each parameter.
func checkGrad(t *testing.T, params []*linalg.Matrix, build func(tape *Tape, ps []*Node) *Node) {
	t.Helper()
	run := func() (float64, []*linalg.Matrix) {
		tape := NewTape()
		ns := make([]*Node, len(params))
		for i, p := range params {
			ns[i] = tape.Param(p)
		}
		out := build(tape, ns)
		Backward(out)
		grads := make([]*linalg.Matrix, len(ns))
		for i, n := range ns {
			grads[i] = n.Grad
		}
		return out.Value.Data[0], grads
	}
	_, analytical := run()
	for pi, p := range params {
		numeric := numericalGrad(p, func() float64 {
			tape := NewTape()
			ns := make([]*Node, len(params))
			for i, q := range params {
				ns[i] = tape.Param(q)
			}
			return build(tape, ns).Value.Data[0]
		})
		a := analytical[pi]
		if a == nil {
			a = linalg.New(p.Rows, p.Cols)
		}
		for i := range numeric.Data {
			diff := math.Abs(a.Data[i] - numeric.Data[i])
			scale := math.Max(1, math.Abs(numeric.Data[i]))
			if diff/scale > 1e-4 {
				t.Fatalf("param %d elem %d: analytical %v vs numerical %v", pi, i, a.Data[i], numeric.Data[i])
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestBackwardRequiresScalar(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-scalar Backward")
		}
	}()
	Backward(p)
}

func TestMixedTapesPanics(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a := t1.Param(linalg.New(1, 1))
	b := t2.Param(linalg.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mixed tapes")
		}
	}()
	Add(a, b)
}

func TestGradSimpleChain(t *testing.T) {
	// f = sum((x·w + b)²) — exercised via Mul(self, self).
	rng := rand.New(rand.NewSource(1))
	x := randMat(rng, 3, 4)
	w := randMat(rng, 4, 2)
	b := randMat(rng, 1, 2)
	checkGrad(t, []*linalg.Matrix{w, b}, func(tape *Tape, ps []*Node) *Node {
		xc := tape.Const(x)
		h := AddRowVector(MatMul(xc, ps[0]), ps[1])
		return Sum(Mul(h, h))
	})
}

func TestGradMatMulBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 2, 3)
	b := randMat(rng, 3, 2)
	checkGrad(t, []*linalg.Matrix{a, b}, func(tape *Tape, ps []*Node) *Node {
		return Sum(MatMul(ps[0], ps[1]))
	})
}

func TestGradElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 3, 3)
	checkGrad(t, []*linalg.Matrix{x}, func(tape *Tape, ps []*Node) *Node {
		h := Tanh(ps[0])
		h = Sigmoid(h)
		h = Softplus(h)
		return Mean(h)
	})
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 4, 4)
	// Keep values away from the kink to avoid finite-difference trouble.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] += 0.5
		}
	}
	checkGrad(t, []*linalg.Matrix{x}, func(tape *Tape, ps []*Node) *Node {
		return Sum(ReLU(ps[0]))
	})
}

func TestGradExpLogAbs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 3, 2)
	for i := range x.Data {
		x.Data[i] = 0.5 + math.Abs(x.Data[i]) // positive for Log
	}
	checkGrad(t, []*linalg.Matrix{x}, func(tape *Tape, ps []*Node) *Node {
		return Sum(Abs(Log(Exp(ps[0]))))
	})
}

func TestGradSubNegScaleAddScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 2, 3)
	b := randMat(rng, 2, 3)
	checkGrad(t, []*linalg.Matrix{a, b}, func(tape *Tape, ps []*Node) *Node {
		d := Sub(ps[0], Neg(Scale(ps[1], 2.5)))
		return Mean(Mul(AddScalar(d, 1.5), d))
	})
}

func TestGradTransposeSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 3, 4)
	checkGrad(t, []*linalg.Matrix{a}, func(tape *Tape, ps []*Node) *Node {
		s := SliceCols(ps[0], 1, 3) // 3x2
		return Sum(MatMul(s, Transpose(s)))
	})
}

func TestGradAttentionPattern(t *testing.T) {
	// The SimGNN-style attention readout used by the GNN:
	// c = tanh(mean_rows(H)·W), scores = sigmoid(H·cᵀ), g = scoresᵀ·H.
	rng := rand.New(rand.NewSource(8))
	h := randMat(rng, 5, 4)
	w := randMat(rng, 4, 4)
	head := randMat(rng, 4, 1)
	checkGrad(t, []*linalg.Matrix{h, w, head}, func(tape *Tape, ps []*Node) *Node {
		n := ps[0].Value.Rows
		ones := linalg.New(1, n)
		for i := range ones.Data {
			ones.Data[i] = 1 / float64(n)
		}
		mean := MatMul(tape.Const(ones), ps[0]) // 1 x d
		c := Tanh(MatMul(mean, ps[1]))          // 1 x d
		scores := Sigmoid(MatMul(ps[0], Transpose(c)))
		g := MatMul(Transpose(scores), ps[0]) // 1 x d
		return Sum(MatMul(g, ps[2]))
	})
}

func TestGradPowerLawRuntimePattern(t *testing.T) {
	// The LF2 runtime term: runtime = exp(logb + a·logA), a = −softplus(u).
	rng := rand.New(rand.NewSource(9))
	u := randMat(rng, 4, 2) // column 0 → a, column 1 → log b
	logA := randMat(rng, 4, 1)
	truth := randMat(rng, 4, 1)
	checkGrad(t, []*linalg.Matrix{u}, func(tape *Tape, ps []*Node) *Node {
		a := Neg(Softplus(SliceCols(ps[0], 0, 1)))
		logb := SliceCols(ps[0], 1, 2)
		logRt := Add(logb, Mul(a, tape.Const(logA)))
		diff := Sub(Exp(logRt), tape.Const(truth))
		return Mean(Abs(diff))
	})
}

func TestGradAccumulatesWhenReused(t *testing.T) {
	// y = sum(x + x): gradient must be 2 everywhere.
	x := linalg.FromRows([][]float64{{1, 2}, {3, 4}})
	tape := NewTape()
	p := tape.Param(x)
	out := Sum(Add(p, p))
	Backward(out)
	for i, g := range p.Grad.Data {
		if g != 2 {
			t.Fatalf("grad[%d] = %v, want 2", i, g)
		}
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	tape := NewTape()
	c := tape.Const(linalg.FromRows([][]float64{{1, 2}}))
	p := tape.Param(linalg.FromRows([][]float64{{3, 4}}))
	out := Sum(Mul(c, p))
	Backward(out)
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if p.Grad == nil || p.Grad.Data[0] != 1 || p.Grad.Data[1] != 2 {
		t.Fatalf("param grad = %v", p.Grad)
	}
}

func TestTapeReset(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.FromRows([][]float64{{2}}))
	Backward(Sum(Mul(p, p)))
	if p.Grad.Data[0] != 4 {
		t.Fatalf("grad = %v, want 4", p.Grad.Data[0])
	}
	tape.Reset()
	if len(tape.nodes) != 0 {
		t.Fatal("reset did not clear the tape")
	}
}

func TestSliceColsBounds(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad slice")
		}
	}()
	SliceCols(p, 2, 2)
}

func TestSoftplusStability(t *testing.T) {
	tape := NewTape()
	big := tape.Const(linalg.FromRows([][]float64{{800, -800}}))
	out := Softplus(big)
	if math.IsInf(out.Value.Data[0], 0) || math.IsNaN(out.Value.Data[0]) {
		t.Fatalf("softplus(800) = %v", out.Value.Data[0])
	}
	if math.Abs(out.Value.Data[0]-800) > 1e-9 {
		t.Fatalf("softplus(800) = %v, want ~800", out.Value.Data[0])
	}
	if out.Value.Data[1] != 0 {
		t.Fatalf("softplus(-800) = %v, want 0", out.Value.Data[1])
	}
}

func TestSigmoidStability(t *testing.T) {
	if v := SigmoidOf(-800); v != 0 {
		t.Fatalf("sigmoid(-800) = %v", v)
	}
	if v := SigmoidOf(800); v != 1 {
		t.Fatalf("sigmoid(800) = %v", v)
	}
}

func TestClampForwardAndGrad(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.FromRows([][]float64{{-5, 0.5, 7}}))
	c := Clamp(p, -1, 2)
	if c.Value.Data[0] != -1 || c.Value.Data[1] != 0.5 || c.Value.Data[2] != 2 {
		t.Fatalf("clamp values %v", c.Value.Data)
	}
	Backward(Sum(c))
	// Gradient is 1 inside the range and 0 where clipped.
	want := []float64{0, 1, 0}
	for i, g := range p.Grad.Data {
		if g != want[i] {
			t.Fatalf("clamp grads %v, want %v", p.Grad.Data, want)
		}
	}
}

func TestClampBadRangePanics(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Clamp(p, 2, 1)
}

func TestMeanEmptyPanics(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.New(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean(p)
}
