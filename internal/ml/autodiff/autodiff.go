// Package autodiff is a small tape-based reverse-mode automatic
// differentiation engine over dense matrices. It provides exactly the
// operator set TASQ's neural models need — matrix products, broadcasting
// bias addition, elementwise nonlinearities, column slicing and reductions
// — with gradients verified against numerical differentiation in the test
// suite.
//
// Usage: create a Tape, register parameters (Param) and constants (Const),
// compose operations, then call Backward on a scalar (1x1) output node.
// Gradients accumulate into Node.Grad for every parameter that influenced
// the output.
package autodiff

import (
	"fmt"
	"math"

	"tasq/internal/ml/linalg"
)

// Tape records the computation graph in execution order so Backward can
// replay it in reverse. Tapes are single-use per forward pass: build,
// backward, discard (Reset allows reuse of the allocation).
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset clears recorded nodes so the tape can run another forward pass.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

// Node is one value in the computation graph.
type Node struct {
	tape  *Tape
	Value *linalg.Matrix
	// Grad is ∂output/∂Value, allocated lazily during Backward; nil for
	// nodes that do not require gradients.
	Grad         *linalg.Matrix
	requiresGrad bool
	back         func()
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// Const registers a constant (no gradient tracking). The matrix is used
// directly, not copied.
func (t *Tape) Const(m *linalg.Matrix) *Node {
	n := &Node{tape: t, Value: m}
	t.nodes = append(t.nodes, n)
	return n
}

// Param registers a trainable parameter: gradients accumulate into Grad.
// The matrix is used directly so optimizers can update it in place.
func (t *Tape) Param(m *linalg.Matrix) *Node {
	n := &Node{tape: t, Value: m, requiresGrad: true}
	t.nodes = append(t.nodes, n)
	return n
}

// node allocates an interior node for an op result.
func (t *Tape) node(v *linalg.Matrix, requires bool, back func()) *Node {
	n := &Node{tape: t, Value: v, requiresGrad: requires, back: back}
	t.nodes = append(t.nodes, n)
	return n
}

// ensureGrad lazily allocates the gradient buffer.
func ensureGrad(n *Node) *linalg.Matrix {
	if n.Grad == nil {
		n.Grad = linalg.New(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// accumulate adds g into n.Grad if n tracks gradients.
func accumulate(n *Node, g *linalg.Matrix) {
	if !n.requiresGrad {
		return
	}
	dst := ensureGrad(n)
	for i := range dst.Data {
		dst.Data[i] += g.Data[i]
	}
}

func sameTape(op string, ns ...*Node) *Tape {
	t := ns[0].tape
	for _, n := range ns[1:] {
		if n.tape != t {
			panic(fmt.Sprintf("autodiff: %s mixes nodes from different tapes", op))
		}
	}
	return t
}

// Backward runs reverse-mode differentiation from out, which must be a
// scalar (1x1) node. Parameter gradients accumulate; zero them between
// steps (Optimizer implementations do this).
func Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward needs a scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	ensureGrad(out).Data[0] = 1
	t := out.tape
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.requiresGrad && n.Grad != nil {
			n.back()
		}
	}
}

// MatMul returns a·b.
func MatMul(a, b *Node) *Node {
	t := sameTape("MatMul", a, b)
	v := linalg.MatMul(a.Value, b.Value)
	out := t.node(v, a.requiresGrad || b.requiresGrad, nil)
	out.back = func() {
		if a.requiresGrad {
			accumulate(a, linalg.MatMul(out.Grad, linalg.Transpose(b.Value)))
		}
		if b.requiresGrad {
			accumulate(b, linalg.MatMul(linalg.Transpose(a.Value), out.Grad))
		}
	}
	return out
}

// Add returns a+b (same shape).
func Add(a, b *Node) *Node {
	t := sameTape("Add", a, b)
	out := t.node(linalg.Add(a.Value, b.Value), a.requiresGrad || b.requiresGrad, nil)
	out.back = func() {
		accumulate(a, out.Grad)
		accumulate(b, out.Grad)
	}
	return out
}

// Sub returns a−b (same shape).
func Sub(a, b *Node) *Node {
	t := sameTape("Sub", a, b)
	out := t.node(linalg.Sub(a.Value, b.Value), a.requiresGrad || b.requiresGrad, nil)
	out.back = func() {
		accumulate(a, out.Grad)
		if b.requiresGrad {
			accumulate(b, linalg.Scale(out.Grad, -1))
		}
	}
	return out
}

// Mul returns the elementwise product a∘b (same shape).
func Mul(a, b *Node) *Node {
	t := sameTape("Mul", a, b)
	out := t.node(linalg.Mul(a.Value, b.Value), a.requiresGrad || b.requiresGrad, nil)
	out.back = func() {
		if a.requiresGrad {
			accumulate(a, linalg.Mul(out.Grad, b.Value))
		}
		if b.requiresGrad {
			accumulate(b, linalg.Mul(out.Grad, a.Value))
		}
	}
	return out
}

// Scale returns s·a for scalar s.
func Scale(a *Node, s float64) *Node {
	out := a.tape.node(linalg.Scale(a.Value, s), a.requiresGrad, nil)
	out.back = func() { accumulate(a, linalg.Scale(out.Grad, s)) }
	return out
}

// AddRowVector broadcasts the 1 x C row vector v onto every row of m —
// the bias addition of a dense layer.
func AddRowVector(m, v *Node) *Node {
	t := sameTape("AddRowVector", m, v)
	out := t.node(linalg.AddRowVector(m.Value, v.Value), m.requiresGrad || v.requiresGrad, nil)
	out.back = func() {
		accumulate(m, out.Grad)
		if v.requiresGrad {
			g := linalg.New(1, v.Value.Cols)
			for i := 0; i < out.Grad.Rows; i++ {
				row := out.Grad.Row(i)
				for c := range row {
					g.Data[c] += row[c]
				}
			}
			accumulate(v, g)
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Node) *Node {
	out := a.tape.node(linalg.Transpose(a.Value), a.requiresGrad, nil)
	out.back = func() { accumulate(a, linalg.Transpose(out.Grad)) }
	return out
}

// SliceCols returns columns [from, to) of a as a new node; gradients
// scatter back into the sliced range.
func SliceCols(a *Node, from, to int) *Node {
	if from < 0 || to > a.Value.Cols || from >= to {
		panic(fmt.Sprintf("autodiff: SliceCols [%d,%d) of %d columns", from, to, a.Value.Cols))
	}
	rows := a.Value.Rows
	v := linalg.New(rows, to-from)
	for i := 0; i < rows; i++ {
		copy(v.Row(i), a.Value.Row(i)[from:to])
	}
	out := a.tape.node(v, a.requiresGrad, nil)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := linalg.New(rows, a.Value.Cols)
		for i := 0; i < rows; i++ {
			copy(g.Row(i)[from:to], out.Grad.Row(i))
		}
		accumulate(a, g)
	}
	return out
}

// unary builds an elementwise op given the forward map and the derivative
// as a function of (x, y).
func unary(a *Node, f func(float64) float64, df func(x, y float64) float64) *Node {
	v := linalg.Apply(a.Value, f)
	out := a.tape.node(v, a.requiresGrad, nil)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := linalg.New(v.Rows, v.Cols)
		for i := range g.Data {
			g.Data[i] = out.Grad.Data[i] * df(a.Value.Data[i], v.Data[i])
		}
		accumulate(a, g)
	}
	return out
}

// ReLU returns max(x, 0) elementwise.
func ReLU(a *Node) *Node {
	return unary(a,
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Node) *Node {
	return unary(a, math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// Sigmoid returns 1/(1+e^−x) elementwise.
func Sigmoid(a *Node) *Node {
	return unary(a, SigmoidOf, func(_, y float64) float64 { return y * (1 - y) })
}

// Softplus returns log(1+eˣ) elementwise, computed stably.
func Softplus(a *Node) *Node {
	return unary(a, SoftplusOf, func(x, _ float64) float64 { return SigmoidOf(x) })
}

// Exp returns eˣ elementwise.
func Exp(a *Node) *Node {
	return unary(a, math.Exp, func(_, y float64) float64 { return y })
}

// Log returns ln(x) elementwise; inputs must be positive.
func Log(a *Node) *Node {
	return unary(a, math.Log, func(x, _ float64) float64 { return 1 / x })
}

// Abs returns |x| elementwise with subgradient sign(x) (0 at 0).
func Abs(a *Node) *Node {
	return unary(a, math.Abs, func(x, _ float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	})
}

// Neg returns −x elementwise.
func Neg(a *Node) *Node { return Scale(a, -1) }

// Sum reduces a to a 1x1 scalar by summation.
func Sum(a *Node) *Node {
	v := linalg.New(1, 1)
	v.Data[0] = a.Value.Sum()
	out := a.tape.node(v, a.requiresGrad, nil)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := linalg.New(a.Value.Rows, a.Value.Cols)
		for i := range g.Data {
			g.Data[i] = out.Grad.Data[0]
		}
		accumulate(a, g)
	}
	return out
}

// Mean reduces a to a 1x1 scalar by averaging.
func Mean(a *Node) *Node {
	n := len(a.Value.Data)
	if n == 0 {
		panic("autodiff: Mean of empty matrix")
	}
	return Scale(Sum(a), 1/float64(n))
}

// Clamp limits every element to [lo, hi]; the gradient is 1 inside the
// range and 0 where the value was clipped (a straight-through cut-off used
// to keep exponentials numerically safe during early training).
func Clamp(a *Node, lo, hi float64) *Node {
	if lo > hi {
		panic(fmt.Sprintf("autodiff: Clamp with lo %v > hi %v", lo, hi))
	}
	return unary(a,
		func(x float64) float64 {
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		},
		func(x, _ float64) float64 {
			if x < lo || x > hi {
				return 0
			}
			return 1
		})
}

// AddScalar adds the constant s to every element.
func AddScalar(a *Node, s float64) *Node {
	return unary(a, func(x float64) float64 { return x + s }, func(_, _ float64) float64 { return 1 })
}

// SigmoidOf is the scalar map behind Sigmoid, exported so gradient-free
// inference applies the very function the tape does.
func SigmoidOf(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SoftplusOf is the scalar map behind Softplus (see SigmoidOf).
func SoftplusOf(x float64) float64 {
	// log(1+e^x) = max(x,0) + log1p(e^{−|x|})
	if x > 0 {
		return x + math.Log1p(math.Exp(-x))
	}
	return math.Log1p(math.Exp(x))
}
