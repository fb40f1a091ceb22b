package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"tasq/internal/ml/linalg"
)

// gradCase is one graph of the numerical-gradient suite, as data, so the
// same checks can run on a tape that has already served other graphs.
type gradCase struct {
	name   string
	params func(rng *rand.Rand) []*linalg.Matrix
	build  func(tape *Tape, ps []*Node, consts []*linalg.Matrix) *Node
	consts func(rng *rand.Rand) []*linalg.Matrix
}

func mats(shapes ...[2]int) func(*rand.Rand) []*linalg.Matrix {
	return func(rng *rand.Rand) []*linalg.Matrix {
		out := make([]*linalg.Matrix, len(shapes))
		for i, s := range shapes {
			out[i] = randMat(rng, s[0], s[1])
		}
		return out
	}
}

var gradCases = []gradCase{
	{
		name:   "dense-layer-squared",
		params: mats([2]int{4, 2}, [2]int{1, 2}),
		consts: mats([2]int{3, 4}),
		build: func(tape *Tape, ps []*Node, cs []*linalg.Matrix) *Node {
			h := AddRowVector(MatMul(tape.Const(cs[0]), ps[0]), ps[1])
			return Sum(Mul(h, h))
		},
	},
	{
		name:   "matmul-both-sides",
		params: mats([2]int{2, 3}, [2]int{3, 2}),
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			return Sum(MatMul(ps[0], ps[1]))
		},
	},
	{
		name:   "elementwise-chain",
		params: mats([2]int{3, 3}),
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			return Mean(Softplus(Sigmoid(Tanh(ps[0]))))
		},
	},
	{
		name: "relu-exp-log-abs-clamp",
		params: func(rng *rand.Rand) []*linalg.Matrix {
			x := randMat(rng, 3, 2)
			for i := range x.Data {
				x.Data[i] = 0.5 + math.Abs(x.Data[i]) // positive for Log, off every kink
			}
			return []*linalg.Matrix{x}
		},
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			return Sum(Clamp(Abs(Log(Exp(ReLU(ps[0])))), 0.1, 1.4))
		},
	},
	{
		name:   "sub-neg-scale-addscalar",
		params: mats([2]int{2, 3}, [2]int{2, 3}),
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			d := Sub(ps[0], Neg(Scale(ps[1], 2.5)))
			return Mean(Mul(AddScalar(d, 1.5), d))
		},
	},
	{
		name:   "transpose-slice",
		params: mats([2]int{3, 4}),
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			s := SliceCols(ps[0], 1, 3)
			return Sum(MatMul(s, Transpose(s)))
		},
	},
	{
		name:   "attention-readout",
		params: mats([2]int{5, 4}, [2]int{4, 4}, [2]int{4, 1}),
		build: func(tape *Tape, ps []*Node, _ []*linalg.Matrix) *Node {
			n := ps[0].Value.Rows
			ones := tape.Matrix(1, n)
			for i := range ones.Data {
				ones.Data[i] = 1 / float64(n)
			}
			c := Tanh(MatMul(MatMul(tape.Const(ones), ps[0]), ps[1]))
			scores := Sigmoid(MatMul(ps[0], Transpose(c)))
			return Sum(MatMul(MatMul(Transpose(scores), ps[0]), ps[2]))
		},
	},
	{
		name:   "power-law-runtime",
		params: mats([2]int{4, 2}),
		consts: mats([2]int{4, 1}, [2]int{4, 1}),
		build: func(tape *Tape, ps []*Node, cs []*linalg.Matrix) *Node {
			a := Neg(Softplus(SliceCols(ps[0], 0, 1)))
			logRt := Add(SliceCols(ps[0], 1, 2), Mul(a, tape.Const(cs[0])))
			return Mean(Abs(Sub(Exp(logRt), tape.Const(cs[1]))))
		},
	},
}

// soil runs a throwaway graph of the given shape through the tape, forward
// and backward, leaving large values and gradients behind in every region
// of the arena it touched, then recycles the tape.
func soil(tape *Tape, rng *rand.Rand, rows, inner, cols int) {
	big := func(r, c int) *linalg.Matrix {
		m := randMat(rng, r, c)
		for i := range m.Data {
			m.Data[i] = 1e6 * (1 + math.Abs(m.Data[i]))
		}
		return m
	}
	x, w, b := tape.Param(big(rows, inner)), tape.Param(big(inner, cols)), tape.Param(big(1, cols))
	scratch := tape.Matrix(rows, cols)
	for i := range scratch.Data {
		scratch.Data[i] = 1e9
	}
	h := AddRowVector(MatMul(x, w), b)
	h = Mul(h, Add(Transpose(Transpose(h)), tape.Const(scratch)))
	Backward(Sum(Scale(SliceCols(h, 0, cols), 3)))
	tape.Reset()
}

// gradsOn builds c's graph on tape, runs Backward and copies the output and
// every parameter gradient out of the arena (nil where none flowed).
func gradsOn(tape *Tape, c gradCase, params, consts []*linalg.Matrix) (float64, []*linalg.Matrix) {
	ns := make([]*Node, len(params))
	for i, p := range params {
		ns[i] = tape.Param(p)
	}
	out := c.build(tape, ns, consts)
	Backward(out)
	grads := make([]*linalg.Matrix, len(ns))
	for i, n := range ns {
		if n.Grad != nil {
			grads[i] = n.Grad.Clone()
		}
	}
	return out.Value.Data[0], grads
}

// The suite's gradient checks, on one tape that before every case has been
// Reset at least twice with differently shaped graphs in between. A carve
// that is not zeroed, a gradient surviving a Reset or a node slot keeping
// its old operands shows up twice over: against numerical differentiation,
// and bit for bit against the same graph on a tape used once.
func TestGradientsOnRecycledTape(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tape := NewTape()
	for ci, c := range gradCases {
		params := c.params(rng)
		var consts []*linalg.Matrix
		if c.consts != nil {
			consts = c.consts(rng)
		}
		soil(tape, rng, 7+ci, 3, 5)
		soil(tape, rng, 2, 9+ci, 4+ci)
		if len(tape.nodes) != 0 {
			t.Fatalf("%s: Reset left %d nodes on the tape", c.name, len(tape.nodes))
		}

		value, got := gradsOn(tape, c, params, consts)
		freshValue, want := gradsOn(NewTape(), c, params, consts)
		if math.Float64bits(value) != math.Float64bits(freshValue) {
			t.Fatalf("%s: output %v on the recycled tape, %v on a fresh one", c.name, value, freshValue)
		}
		for pi, p := range params {
			if (got[pi] == nil) != (want[pi] == nil) {
				t.Fatalf("%s param %d: gradient presence differs between recycled and fresh tape", c.name, pi)
			}
			numeric := numericalGrad(p, func() float64 {
				v, _ := gradsOn(NewTape(), c, params, consts)
				return v
			})
			for i := range numeric.Data {
				var g, w float64
				if got[pi] != nil {
					g, w = got[pi].Data[i], want[pi].Data[i]
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s param %d elem %d: recycled tape %v, fresh tape %v", c.name, pi, i, g, w)
				}
				if diff := math.Abs(g - numeric.Data[i]); diff/math.Max(1, math.Abs(numeric.Data[i])) > 1e-4 {
					t.Fatalf("%s param %d elem %d: analytical %v vs numerical %v", c.name, pi, i, g, numeric.Data[i])
				}
			}
		}
		tape.Reset()
	}
}

// Matrix hands out zeroed storage however the arena was left.
func TestTapeMatrixIsZeroedAfterReset(t *testing.T) {
	tape := NewTape()
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 3; round++ {
		soil(tape, rng, 6, 4, 5)
		for k := 0; k < 4; k++ {
			m := tape.Matrix(5+k, 3)
			for i, v := range m.Data {
				if v != 0 {
					t.Fatalf("round %d matrix %d element %d = %v, want 0", round, k, i, v)
				}
				m.Data[i] = 7
			}
		}
		tape.Reset()
	}
}

// Nodes recorded before the slab outgrows its storage must stay valid
// through Backward, and a gradient must stay readable until Reset.
func TestTapeGrowthKeepsEarlierNodes(t *testing.T) {
	tape := NewTape()
	p := tape.Param(linalg.FromRows([][]float64{{1, 2, 3}}))
	h := p
	const depth = 200 // several slab generations on a cold tape
	for i := 0; i < depth; i++ {
		h = AddScalar(h, 1)
	}
	Backward(Sum(h))
	for i, g := range p.Grad.Data {
		if g != 1 {
			t.Fatalf("grad[%d] = %v through %d nodes, want 1", i, g, depth)
		}
	}
	if got := h.Value.Data[2]; got != 3+depth {
		t.Fatalf("value %v, want %v", got, 3+depth)
	}
}

// A warm pass records its nodes, values and gradients without allocating.
func TestWarmTapePassDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x, w, b := randMat(rng, 16, 8), randMat(rng, 8, 4), randMat(rng, 1, 4)
	tape := NewTape()
	pass := func() {
		h := Tanh(AddRowVector(MatMul(tape.Const(x), tape.Param(w)), tape.Param(b)))
		Backward(Mean(Abs(Clamp(SliceCols(h, 1, 3), -0.5, 0.5))))
		tape.Reset()
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Fatalf("warm tape pass allocates %.1f times", allocs)
	}
}
