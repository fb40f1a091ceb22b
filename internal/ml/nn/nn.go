// Package nn provides the feed-forward building blocks of TASQ's neural
// models (§4.4): dense layers with standard initializations, a multi-layer
// perceptron that trains on the autodiff tape (Forward) and answers
// through a tape-free pass over scratch storage (Infer), and the Adam
// optimizer. The GNN package composes these same pieces with graph
// convolutions.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	ActIdentity Activation = iota
	ActReLU
	ActTanh
)

// Apply runs the activation on a tape node.
func (a Activation) Apply(x *autodiff.Node) *autodiff.Node {
	switch a {
	case ActReLU:
		return autodiff.ReLU(x)
	case ActTanh:
		return autodiff.Tanh(x)
	default:
		return x
	}
}

// InPlace runs the activation over v — the forward maps of Apply without
// a tape.
func (a Activation) InPlace(v []float64) {
	switch a {
	case ActReLU:
		for i, x := range v {
			if !(x > 0) {
				v[i] = 0
			}
		}
	case ActTanh:
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	}
}

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	default:
		return "identity"
	}
}

// Dense is a fully connected layer y = act(x·W + b).
type Dense struct {
	W, B *linalg.Matrix
	Act  Activation
}

// NewDense builds a layer with He initialization for ReLU and Xavier
// otherwise, which keeps activations well-scaled at these depths.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: dense layer %dx%d", in, out))
	}
	var scale float64
	if act == ActReLU {
		scale = math.Sqrt(2 / float64(in))
	} else {
		scale = math.Sqrt(1 / float64(in))
	}
	w := linalg.New(in, out)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * scale
	}
	return &Dense{W: w, B: linalg.New(1, out), Act: act}
}

// Forward applies the layer on the tape. wNode and bNode must wrap this
// layer's parameters on the same tape as x.
func (d *Dense) Forward(x, wNode, bNode *autodiff.Node) *autodiff.Node {
	return d.Act.Apply(autodiff.AddRowVector(autodiff.MatMul(x, wNode), bNode))
}

// Infer applies the layer without a tape: x·W through the kernel MatMul
// shares, then bias and activation in place, each element seeing the
// operations Forward applies to it in the same order. The result is carved
// from sc.
func (d *Dense) Infer(sc *linalg.Scratch, x *linalg.Matrix) *linalg.Matrix {
	if d.B.Rows != 1 || d.B.Cols != d.W.Cols {
		panic(fmt.Sprintf("nn: bias %dx%d for %d outputs", d.B.Rows, d.B.Cols, d.W.Cols))
	}
	out := sc.Matrix(x.Rows, d.W.Cols)
	linalg.MatMulInto(out, x, d.W)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j, b := range d.B.Data {
			row[j] += b
		}
	}
	d.Act.InPlace(out.Data)
	return out
}

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer dimensions (len ≥ 2): hidden
// layers use hiddenAct, the output layer is linear.
func NewMLP(rng *rand.Rand, dims []int, hiddenAct Activation) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dimensions")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		act := hiddenAct
		if i+2 == len(dims) {
			act = ActIdentity
		}
		m.Layers = append(m.Layers, NewDense(rng, dims[i], dims[i+1], act))
	}
	return m
}

// Params returns the flat parameter list (weights and biases, layer by
// layer) for optimizers and serialization.
func (m *MLP) Params() []*linalg.Matrix {
	out := make([]*linalg.Matrix, 0, 2*len(m.Layers))
	for _, l := range m.Layers {
		out = append(out, l.W, l.B)
	}
	return out
}

// NumParams returns the total scalar parameter count (Table 7).
func (m *MLP) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// Forward runs the network on the tape, registering parameters as Param
// nodes. It returns the output node and the parameter nodes aligned with
// Params(), from which the caller reads gradients after Backward.
func (m *MLP) Forward(tape *autodiff.Tape, x *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	paramNodes := make([]*autodiff.Node, 0, 2*len(m.Layers))
	h := x
	for _, l := range m.Layers {
		w := tape.Param(l.W)
		b := tape.Param(l.B)
		paramNodes = append(paramNodes, w, b)
		h = l.Forward(h, w, b)
	}
	return h, paramNodes
}

// Infer runs the network without a tape, every intermediate carved from
// sc, and returns the output (valid until sc is released). It is the one
// inference path: Forward exists to train, and the tests hold the two equal
// bit for bit.
func (m *MLP) Infer(sc *linalg.Scratch, x *linalg.Matrix) *linalg.Matrix {
	h := x
	for _, l := range m.Layers {
		h = l.Infer(sc, h)
	}
	return h
}

// Predict runs a gradient-free forward pass on a design matrix.
func (m *MLP) Predict(x *linalg.Matrix) *linalg.Matrix {
	sc := linalg.GetScratch()
	defer sc.Release()
	return m.Infer(sc, x).Clone()
}

// Adam is the Adam optimizer (Kingma & Ba) with per-parameter moment
// estimates keyed by parameter identity.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v map[*linalg.Matrix]*linalg.Matrix
}

// NewAdam returns an optimizer with standard defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*linalg.Matrix]*linalg.Matrix),
		v: make(map[*linalg.Matrix]*linalg.Matrix),
	}
}

// Step applies one update. params and grads must align; nil grads (a
// parameter unused this step) are skipped.
func (a *Adam) Step(params, grads []*linalg.Matrix) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: Adam step with %d params, %d grads", len(params), len(grads)))
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		g := grads[i]
		if g == nil {
			continue
		}
		if len(g.Data) != len(p.Data) {
			panic("nn: Adam gradient shape mismatch")
		}
		mom, ok := a.m[p]
		if !ok {
			mom = linalg.New(p.Rows, p.Cols)
			a.m[p] = mom
		}
		vel, ok := a.v[p]
		if !ok {
			vel = linalg.New(p.Rows, p.Cols)
			a.v[p] = vel
		}
		for k := range p.Data {
			gk := g.Data[k]
			mom.Data[k] = a.Beta1*mom.Data[k] + (1-a.Beta1)*gk
			vel.Data[k] = a.Beta2*vel.Data[k] + (1-a.Beta2)*gk*gk
			mhat := mom.Data[k] / bc1
			vhat := vel.Data[k] / bc2
			p.Data[k] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// GradsOf extracts gradients from parameter nodes after Backward, aligned
// with the node list (nil where no gradient flowed).
func GradsOf(nodes []*autodiff.Node) []*linalg.Matrix {
	out := make([]*linalg.Matrix, len(nodes))
	for i, n := range nodes {
		out[i] = n.Grad
	}
	return out
}
