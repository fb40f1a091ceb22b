// Package gnn implements TASQ's graph neural network (§4.4, Figure 10): a
// SimGNN-like architecture with graph-convolution layers for node-level
// embeddings, an attention readout whose global context is a learnable
// nonlinear transform of the mean node embedding, and a fully connected
// head that maps the graph embedding to the two PCC parameters.
//
// The model consumes a job's operator-level feature matrix and the
// normalized adjacency matrix produced by the features package.
package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/nn"
)

// Model is the GCN + attention + MLP-head network.
type Model struct {
	// Convs are the graph-convolution layers: Hᵢ₊₁ = ReLU(Â·Hᵢ·W + b).
	Convs []*nn.Dense
	// AttnW transforms the mean node embedding into the attention's
	// global context vector (d x d).
	AttnW *linalg.Matrix
	// Head maps the pooled graph embedding to the output.
	Head *nn.MLP
}

// Config describes the architecture.
type Config struct {
	// InputDim is the node feature dimension.
	InputDim int
	// ConvDims are the output sizes of successive GCN layers.
	ConvDims []int
	// HeadDims are the hidden sizes of the dense head; the final output
	// dimension is appended by New.
	HeadDims []int
	// OutputDim is the model output size (2 for PCC parameters).
	OutputDim int
}

// DefaultConfig mirrors the paper's scale: ~19K parameters against the
// NN's ~2K (Table 7).
func DefaultConfig(inputDim int) Config {
	return Config{
		InputDim:  inputDim,
		ConvDims:  []int{64, 64},
		HeadDims:  []int{96},
		OutputDim: 2,
	}
}

// New builds a model with randomly initialized parameters.
func New(rng *rand.Rand, cfg Config) *Model {
	if cfg.InputDim < 1 || cfg.OutputDim < 1 || len(cfg.ConvDims) == 0 {
		panic(fmt.Sprintf("gnn: bad config %+v", cfg))
	}
	m := &Model{}
	in := cfg.InputDim
	for _, d := range cfg.ConvDims {
		m.Convs = append(m.Convs, nn.NewDense(rng, in, d, nn.ActReLU))
		in = d
	}
	m.AttnW = linalg.New(in, in)
	scale := math.Sqrt(1 / float64(in))
	for i := range m.AttnW.Data {
		m.AttnW.Data[i] = rng.NormFloat64() * scale
	}
	headDims := append([]int{in}, cfg.HeadDims...)
	headDims = append(headDims, cfg.OutputDim)
	m.Head = nn.NewMLP(rng, headDims, nn.ActReLU)
	return m
}

// Params returns all trainable tensors: conv weights/biases, the attention
// transform, then head parameters.
func (m *Model) Params() []*linalg.Matrix {
	out := make([]*linalg.Matrix, 0, 2*len(m.Convs)+1+2*len(m.Head.Layers))
	for _, c := range m.Convs {
		out = append(out, c.W, c.B)
	}
	out = append(out, m.AttnW)
	out = append(out, m.Head.Params()...)
	return out
}

// NumParams returns the total scalar parameter count (Table 7).
func (m *Model) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// Forward runs one graph through the network on the tape. features is the
// N x InputDim node matrix, adj the N x N normalized adjacency. It returns
// the 1 x OutputDim graph-level output and the parameter nodes aligned
// with Params().
func (m *Model) Forward(tape *autodiff.Tape, features, adj *autodiff.Node) (*autodiff.Node, []*autodiff.Node) {
	n := features.Value.Rows
	if adj.Value.Rows != n || adj.Value.Cols != n {
		panic(fmt.Sprintf("gnn: adjacency %dx%d for %d nodes", adj.Value.Rows, adj.Value.Cols, n))
	}
	paramNodes := make([]*autodiff.Node, 0, 2*len(m.Convs)+1+2*len(m.Head.Layers))

	// Node-level embeddings: stacked graph convolutions.
	h := features
	for _, c := range m.Convs {
		w := tape.Param(c.W)
		b := tape.Param(c.B)
		paramNodes = append(paramNodes, w, b)
		h = c.Forward(autodiff.MatMul(adj, h), w, b)
	}

	// Attention readout (SimGNN): global context c = tanh(mean(H)·Wₐ),
	// node scores = sigmoid(H·cᵀ), graph embedding g = scoresᵀ·H
	// normalized by 1/n. The normalization departs from SimGNN's raw sum:
	// job plans span 5–60 operators, and an unnormalized readout makes
	// the embedding magnitude track plan size, drowning the content
	// signal (plan size remains available through the node features).
	ones := tape.Matrix(1, n)
	for i := range ones.Data {
		ones.Data[i] = 1 / float64(n)
	}
	mean := autodiff.MatMul(tape.Const(ones), h)
	attnW := tape.Param(m.AttnW)
	paramNodes = append(paramNodes, attnW)
	ctx := autodiff.Tanh(autodiff.MatMul(mean, attnW))
	scores := autodiff.Sigmoid(autodiff.MatMul(h, autodiff.Transpose(ctx)))
	graph := autodiff.Scale(autodiff.MatMul(autodiff.Transpose(scores), h), 1/float64(n))

	// Curve prediction head.
	out, headNodes := m.Head.Forward(tape, graph)
	paramNodes = append(paramNodes, headNodes...)
	return out, paramNodes
}

// attend is the tape-free front half of Forward: the stacked convolutions
// and the attention scoring, through the kernels and in the operation order
// the tape uses. It returns the N x d node embeddings and the N x 1
// attention scores, both carved from sc.
func (m *Model) attend(sc *linalg.Scratch, features, adj *linalg.Matrix) (h, scores *linalg.Matrix) {
	n := features.Rows
	if adj.Rows != n || adj.Cols != n {
		panic(fmt.Sprintf("gnn: adjacency %dx%d for %d nodes", adj.Rows, adj.Cols, n))
	}
	h = features
	for _, c := range m.Convs {
		ah := sc.Matrix(n, h.Cols)
		linalg.MatMulInto(ah, adj, h)
		h = c.Infer(sc, ah)
	}
	ones := sc.Matrix(1, n)
	for i := range ones.Data {
		ones.Data[i] = 1 / float64(n)
	}
	mean := sc.Matrix(1, h.Cols)
	linalg.MatMulInto(mean, ones, h)
	ctx := sc.Matrix(1, m.AttnW.Cols)
	linalg.MatMulInto(ctx, mean, m.AttnW)
	nn.ActTanh.InPlace(ctx.Data)
	// A row vector's transpose is the same data read as a column.
	ctxT := linalg.Matrix{Rows: ctx.Cols, Cols: 1, Data: ctx.Data}
	scores = sc.Matrix(n, 1)
	linalg.MatMulInto(scores, h, &ctxT)
	for i, v := range scores.Data {
		scores.Data[i] = autodiff.SigmoidOf(v)
	}
	return h, scores
}

// Infer runs one graph through the network without a tape and returns the
// 1 x OutputDim output, carved from sc (valid until sc is released). It is
// the one inference path: Forward exists to train, and the tests hold the
// two equal bit for bit.
func (m *Model) Infer(sc *linalg.Scratch, features, adj *linalg.Matrix) *linalg.Matrix {
	h, scores := m.attend(sc, features, adj)
	n := features.Rows
	scoresT := linalg.Matrix{Rows: 1, Cols: n, Data: scores.Data}
	graph := sc.Matrix(1, h.Cols)
	linalg.MatMulInto(graph, &scoresT, h)
	inv := 1 / float64(n)
	for i, v := range graph.Data {
		graph.Data[i] = v * inv
	}
	return m.Head.Infer(sc, graph)
}

// Predict runs a gradient-free forward pass for one graph.
func (m *Model) Predict(features, adj *linalg.Matrix) *linalg.Matrix {
	sc := linalg.GetScratch()
	defer sc.Release()
	return m.Infer(sc, features, adj).Clone()
}

// AttentionScores returns the per-node attention weights for a graph — the
// interpretability hook the paper motivates the attention mechanism with
// (focusing on the most relevant operators).
func (m *Model) AttentionScores(features, adj *linalg.Matrix) []float64 {
	sc := linalg.GetScratch()
	defer sc.Release()
	_, scores := m.attend(sc, features, adj)
	return append([]float64(nil), scores.Data...)
}
