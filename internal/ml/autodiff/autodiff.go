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
//
// A training loop builds one Tape and calls Reset after every optimizer
// step. The tape owns an arena: every op's value, every gradient and every
// Node is carved from storage the tape keeps across Resets, and an op
// records an op-code and its operands rather than a closure, so a warm step
// does not touch the allocator. The price is a lifetime rule: everything
// the tape handed out (nodes, their Value and Grad, Matrix results) belongs
// to the tape and is valid only until its next Reset. A caller that wants
// a gradient afterwards copies it first; nn.Adam reads gradients during
// Step and keeps its own moment buffers, so "Step, then Reset" is safe and
// "Reset, then Step" is not. Matrices passed to Param and Const stay the
// caller's and are never recycled.
package autodiff

import (
	"fmt"
	"math"

	"tasq/internal/ml/linalg"
)

// Tape records the computation graph in execution order so Backward can
// replay it in reverse, and owns the storage the graph lives in (see the
// package comment). The arena is per tape, never shared: two trainings on
// two tapes may overlap freely, while one tape serves one goroutine. A tape
// used once and dropped (NewTape, forward, Backward) needs no Reset.
type Tape struct {
	nodes []*Node
	// slab backs the nodes; when a pass outgrows it a larger one replaces
	// it and the nodes already handed out keep the old storage.
	slab []Node
	// arena backs every value and gradient matrix of the pass.
	arena linalg.Scratch
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset recycles the tape for another forward pass: every node, value and
// gradient it handed out becomes invalid, and its storage is kept, sized so
// that a pass like the one just finished allocates nothing.
func (t *Tape) Reset() {
	if n := len(t.nodes); n > cap(t.slab) {
		t.slab = make([]Node, 0, n)
	}
	t.nodes, t.slab = t.nodes[:0], t.slab[:0]
	t.arena.Reset()
}

// Matrix carves a zeroed rows x cols matrix out of the tape's arena, for
// per-step constants the caller fills and hands to Const. Like everything
// the tape owns it is valid until Reset.
func (t *Tape) Matrix(rows, cols int) *linalg.Matrix {
	m := t.arena.Matrix(rows, cols)
	clear(m.Data)
	return m
}

// op names the operation that produced a node; Backward dispatches on it.
type op uint8

const (
	opLeaf op = iota // Const or Param: nothing to propagate
	opMatMul
	opAdd
	opSub
	opMul
	opScale // s
	opAddRowVector
	opTranspose
	opSliceCols // from, to
	opSum
	// Elementwise maps y = f(x); forward and derivative live in unaryValue
	// and unaryDeriv.
	opReLU
	opTanh
	opSigmoid
	opSoftplus
	opExp
	opLog
	opAbs
	opClamp     // s = lo, s2 = hi
	opAddScalar // s
)

// Node is one value in the computation graph. It belongs to its tape and is
// valid until the tape's next Reset.
type Node struct {
	tape  *Tape
	Value *linalg.Matrix
	// Grad is ∂output/∂Value, carved lazily from the tape's arena during
	// Backward; nil for nodes that do not require gradients.
	Grad         *linalg.Matrix
	requiresGrad bool

	// What produced the node: the op, its operand nodes and its scalar or
	// index arguments.
	op       op
	a, b     *Node
	s, s2    float64
	from, to int
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// Const registers a constant (no gradient tracking). The matrix is used
// directly, not copied.
func (t *Tape) Const(m *linalg.Matrix) *Node {
	return t.node(Node{Value: m})
}

// Param registers a trainable parameter: gradients accumulate into Grad.
// The matrix is used directly so optimizers can update it in place.
func (t *Tape) Param(m *linalg.Matrix) *Node {
	return t.node(Node{Value: m, requiresGrad: true})
}

// node records n on the tape, in a slot of the slab.
func (t *Tape) node(n Node) *Node {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]Node, 0, 2*len(t.nodes)+32)
	}
	n.tape = t
	t.slab = append(t.slab, n)
	p := &t.slab[len(t.slab)-1]
	t.nodes = append(t.nodes, p)
	return p
}

// ensureGrad lazily carves the gradient buffer.
func ensureGrad(n *Node) *linalg.Matrix {
	if n.Grad == nil {
		n.Grad = n.tape.Matrix(n.Value.Rows, n.Value.Cols)
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

// accumulateScaled adds s·g into n.Grad if n tracks gradients. The explicit
// conversion rounds the product before the addition, here and in every
// other product-then-add of the backward pass, so that a target with a
// fused multiply-add computes what the others do.
func accumulateScaled(n *Node, g *linalg.Matrix, s float64) {
	if !n.requiresGrad {
		return
	}
	dst := ensureGrad(n)
	for i, gv := range g.Data {
		dst.Data[i] += float64(gv * s)
	}
}

// accumulateProduct adds g∘w into n.Grad if n tracks gradients.
func accumulateProduct(n *Node, g, w *linalg.Matrix) {
	if !n.requiresGrad {
		return
	}
	dst := ensureGrad(n)
	for i, gv := range g.Data {
		dst.Data[i] += float64(gv * w.Data[i])
	}
}

func sameTape(op string, a, b *Node) *Tape {
	if a.tape != b.tape {
		panic(fmt.Sprintf("autodiff: %s mixes nodes from different tapes", op))
	}
	return a.tape
}

// Backward runs reverse-mode differentiation from out, which must be a
// scalar (1x1) node. Gradients are valid until the tape's next Reset; a
// parameter registered twice on one tape gets one gradient per Param node.
func Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward needs a scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	ensureGrad(out).Data[0] = 1
	t := out.tape
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.op != opLeaf && n.requiresGrad && n.Grad != nil {
			n.backward()
		}
	}
}

// backward propagates n.Grad into n's operands. Each operand's share is
// formed first and added to its gradient second, one rounded addition per
// element, whichever op produced it.
func (n *Node) backward() {
	t, a, b, g := n.tape, n.a, n.b, n.Grad
	switch n.op {
	case opMatMul:
		if a.requiresGrad {
			ga := t.arena.Matrix(a.Value.Rows, a.Value.Cols)
			linalg.MatMulNTInto(ga, g, b.Value)
			accumulate(a, ga)
		}
		if b.requiresGrad {
			gb := t.arena.Matrix(b.Value.Rows, b.Value.Cols)
			linalg.MatMulTNInto(gb, a.Value, g)
			accumulate(b, gb)
		}
	case opAdd:
		accumulate(a, g)
		accumulate(b, g)
	case opSub:
		accumulate(a, g)
		accumulateScaled(b, g, -1)
	case opMul:
		accumulateProduct(a, g, b.Value)
		accumulateProduct(b, g, a.Value)
	case opScale:
		accumulateScaled(a, g, n.s)
	case opAddRowVector:
		accumulate(a, g)
		if b.requiresGrad {
			colSums := t.Matrix(1, g.Cols)
			for i := 0; i < g.Rows; i++ {
				for c, gv := range g.Row(i) {
					colSums.Data[c] += gv
				}
			}
			accumulate(b, colSums)
		}
	case opTranspose:
		if a.requiresGrad {
			dst := ensureGrad(a)
			for i := 0; i < g.Rows; i++ {
				for j, gv := range g.Row(i) {
					dst.Data[j*dst.Cols+i] += gv
				}
			}
		}
	case opSliceCols:
		if a.requiresGrad {
			dst := ensureGrad(a)
			for i := 0; i < g.Rows; i++ {
				into := dst.Row(i)[n.from:n.to]
				for j, gv := range g.Row(i) {
					into[j] += gv
				}
			}
		}
	case opSum:
		if a.requiresGrad {
			dst := ensureGrad(a)
			for i := range dst.Data {
				dst.Data[i] += g.Data[0]
			}
		}
	default:
		if a.requiresGrad {
			dst := ensureGrad(a)
			for i, gv := range g.Data {
				dst.Data[i] += float64(gv * unaryDeriv(n.op, a.Value.Data[i], n.Value.Data[i], n.s, n.s2))
			}
		}
	}
}

// result records an op's output node with a value matrix of the given
// shape carved from the arena. Its contents are unspecified: every op
// writes each element of its value.
func (t *Tape) result(rows, cols int, requires bool, n Node) *Node {
	n.Value = t.arena.Matrix(rows, cols)
	n.requiresGrad = requires
	return t.node(n)
}

// MatMul returns a·b.
func MatMul(a, b *Node) *Node {
	t := sameTape("MatMul", a, b)
	out := t.result(a.Value.Rows, b.Value.Cols, a.requiresGrad || b.requiresGrad, Node{op: opMatMul, a: a, b: b})
	linalg.MatMulInto(out.Value, a.Value, b.Value)
	return out
}

// sameShape panics unless a and b have identical dimensions.
func sameShape(op string, a, b *Node) {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("autodiff: %s shape mismatch %dx%d vs %dx%d", op, a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
}

// Add returns a+b (same shape).
func Add(a, b *Node) *Node {
	t := sameTape("Add", a, b)
	sameShape("Add", a, b)
	out := t.result(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, Node{op: opAdd, a: a, b: b})
	for i, av := range a.Value.Data {
		out.Value.Data[i] = av + b.Value.Data[i]
	}
	return out
}

// Sub returns a−b (same shape).
func Sub(a, b *Node) *Node {
	t := sameTape("Sub", a, b)
	sameShape("Sub", a, b)
	out := t.result(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, Node{op: opSub, a: a, b: b})
	for i, av := range a.Value.Data {
		out.Value.Data[i] = av - b.Value.Data[i]
	}
	return out
}

// Mul returns the elementwise product a∘b (same shape).
func Mul(a, b *Node) *Node {
	t := sameTape("Mul", a, b)
	sameShape("Mul", a, b)
	out := t.result(a.Value.Rows, a.Value.Cols, a.requiresGrad || b.requiresGrad, Node{op: opMul, a: a, b: b})
	for i, av := range a.Value.Data {
		out.Value.Data[i] = av * b.Value.Data[i]
	}
	return out
}

// Scale returns s·a for scalar s.
func Scale(a *Node, s float64) *Node {
	out := a.tape.result(a.Value.Rows, a.Value.Cols, a.requiresGrad, Node{op: opScale, a: a, s: s})
	for i, av := range a.Value.Data {
		out.Value.Data[i] = av * s
	}
	return out
}

// AddRowVector broadcasts the 1 x C row vector v onto every row of m —
// the bias addition of a dense layer.
func AddRowVector(m, v *Node) *Node {
	t := sameTape("AddRowVector", m, v)
	if v.Value.Rows != 1 || v.Value.Cols != m.Value.Cols {
		panic(fmt.Sprintf("autodiff: AddRowVector shape mismatch %dx%d + %dx%d", m.Value.Rows, m.Value.Cols, v.Value.Rows, v.Value.Cols))
	}
	out := t.result(m.Value.Rows, m.Value.Cols, m.requiresGrad || v.requiresGrad, Node{op: opAddRowVector, a: m, b: v})
	for i := 0; i < m.Value.Rows; i++ {
		row := out.Value.Row(i)
		for j, mv := range m.Value.Row(i) {
			row[j] = mv + v.Value.Data[j]
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Node) *Node {
	out := a.tape.result(a.Value.Cols, a.Value.Rows, a.requiresGrad, Node{op: opTranspose, a: a})
	for i := 0; i < a.Value.Rows; i++ {
		for j, av := range a.Value.Row(i) {
			out.Value.Data[j*out.Value.Cols+i] = av
		}
	}
	return out
}

// SliceCols returns columns [from, to) of a as a new node; gradients
// scatter back into the sliced range.
func SliceCols(a *Node, from, to int) *Node {
	if from < 0 || to > a.Value.Cols || from >= to {
		panic(fmt.Sprintf("autodiff: SliceCols [%d,%d) of %d columns", from, to, a.Value.Cols))
	}
	out := a.tape.result(a.Value.Rows, to-from, a.requiresGrad, Node{op: opSliceCols, a: a, from: from, to: to})
	for i := 0; i < a.Value.Rows; i++ {
		copy(out.Value.Row(i), a.Value.Row(i)[from:to])
	}
	return out
}

// unary records the elementwise op o over a; s and s2 are its scalar
// arguments, if it has any.
func unary(o op, a *Node, s, s2 float64) *Node {
	out := a.tape.result(a.Value.Rows, a.Value.Cols, a.requiresGrad, Node{op: o, a: a, s: s, s2: s2})
	for i, x := range a.Value.Data {
		out.Value.Data[i] = unaryValue(o, x, s, s2)
	}
	return out
}

// unaryValue is the forward map of an elementwise op.
func unaryValue(o op, x, s, s2 float64) float64 {
	switch o {
	case opReLU:
		if x > 0 {
			return x
		}
		return 0
	case opTanh:
		return math.Tanh(x)
	case opSigmoid:
		return SigmoidOf(x)
	case opSoftplus:
		return SoftplusOf(x)
	case opExp:
		return math.Exp(x)
	case opLog:
		return math.Log(x)
	case opAbs:
		return math.Abs(x)
	case opClamp:
		if x < s {
			return s
		}
		if x > s2 {
			return s2
		}
		return x
	case opAddScalar:
		return x + s
	}
	panic(fmt.Sprintf("autodiff: op %d is not elementwise", o))
}

// unaryDeriv is dy/dx of an elementwise op at input x, output y.
func unaryDeriv(o op, x, y, s, s2 float64) float64 {
	switch o {
	case opReLU:
		if x > 0 {
			return 1
		}
		return 0
	case opTanh:
		return 1 - y*y
	case opSigmoid:
		return y * (1 - y)
	case opSoftplus:
		return SigmoidOf(x)
	case opExp:
		return y
	case opLog:
		return 1 / x
	case opAbs:
		// Subgradient sign(x), 0 at 0.
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	case opClamp:
		// Straight-through inside the range, 0 where the value was clipped.
		if x < s || x > s2 {
			return 0
		}
		return 1
	case opAddScalar:
		return 1
	}
	panic(fmt.Sprintf("autodiff: op %d is not elementwise", o))
}

// ReLU returns max(x, 0) elementwise.
func ReLU(a *Node) *Node { return unary(opReLU, a, 0, 0) }

// Tanh returns tanh(x) elementwise.
func Tanh(a *Node) *Node { return unary(opTanh, a, 0, 0) }

// Sigmoid returns 1/(1+e^−x) elementwise.
func Sigmoid(a *Node) *Node { return unary(opSigmoid, a, 0, 0) }

// Softplus returns log(1+eˣ) elementwise, computed stably.
func Softplus(a *Node) *Node { return unary(opSoftplus, a, 0, 0) }

// Exp returns eˣ elementwise.
func Exp(a *Node) *Node { return unary(opExp, a, 0, 0) }

// Log returns ln(x) elementwise; inputs must be positive.
func Log(a *Node) *Node { return unary(opLog, a, 0, 0) }

// Abs returns |x| elementwise with subgradient sign(x) (0 at 0).
func Abs(a *Node) *Node { return unary(opAbs, a, 0, 0) }

// Neg returns −x elementwise.
func Neg(a *Node) *Node { return Scale(a, -1) }

// Sum reduces a to a 1x1 scalar by summation.
func Sum(a *Node) *Node {
	out := a.tape.result(1, 1, a.requiresGrad, Node{op: opSum, a: a})
	out.Value.Data[0] = a.Value.Sum()
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
	return unary(opClamp, a, lo, hi)
}

// AddScalar adds the constant s to every element.
func AddScalar(a *Node, s float64) *Node { return unary(opAddScalar, a, s, 0) }

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
