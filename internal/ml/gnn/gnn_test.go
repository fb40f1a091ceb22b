package gnn

import (
	"math"
	"math/rand"
	"testing"

	"tasq/internal/features"
	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/nn"
	"tasq/internal/workload"
)

func smallModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	return New(rng, Config{InputDim: 6, ConvDims: []int{8, 8}, HeadDims: []int{8}, OutputDim: 2})
}

func ringGraph(n, dim int, rng *rand.Rand) (*linalg.Matrix, *linalg.Matrix) {
	f := linalg.New(n, dim)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	adj := linalg.New(n, n)
	for i := 0; i < n; i++ {
		adj.Set(i, i, 0.5)
		adj.Set(i, (i+1)%n, 0.25)
		adj.Set((i+1)%n, i, 0.25)
	}
	return f, adj
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(rand.New(rand.NewSource(1)), Config{})
}

func TestForwardShape(t *testing.T) {
	m := smallModel(1)
	rng := rand.New(rand.NewSource(2))
	f, adj := ringGraph(5, 6, rng)
	out := m.Predict(f, adj)
	if out.Rows != 1 || out.Cols != 2 {
		t.Fatalf("output %dx%d, want 1x2", out.Rows, out.Cols)
	}
}

func TestForwardAdjacencyMismatchPanics(t *testing.T) {
	m := smallModel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict(linalg.New(5, 6), linalg.New(4, 4))
}

func TestNumParamsMatchesShapes(t *testing.T) {
	m := smallModel(3)
	want := 6*8 + 8 + 8*8 + 8 + 8*8 + (8*8 + 8 + 8*2 + 2)
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestDefaultConfigScaleVsNN(t *testing.T) {
	// Table 7: GNN has roughly an order of magnitude more parameters than
	// the ~2.2K-parameter NN.
	rng := rand.New(rand.NewSource(4))
	m := New(rng, DefaultConfig(features.OperatorDim))
	if m.NumParams() < 10_000 || m.NumParams() > 40_000 {
		t.Fatalf("default GNN has %d params, want O(19K)", m.NumParams())
	}
}

func TestPermutationInvariantReadout(t *testing.T) {
	// Relabeling graph nodes must not change the graph-level output:
	// permute features and adjacency consistently.
	m := smallModel(5)
	rng := rand.New(rand.NewSource(6))
	n := 6
	f, adj := ringGraph(n, 6, rng)
	base := m.Predict(f, adj)

	perm := rng.Perm(n)
	pf := linalg.New(n, f.Cols)
	padj := linalg.New(n, n)
	for i := 0; i < n; i++ {
		copy(pf.Row(perm[i]), f.Row(i))
		for j := 0; j < n; j++ {
			padj.Set(perm[i], perm[j], adj.At(i, j))
		}
	}
	got := m.Predict(pf, padj)
	if !linalg.Equal(base, got, 1e-9) {
		t.Fatalf("readout not permutation invariant: %v vs %v", base, got)
	}
}

func TestGraphStructureMatters(t *testing.T) {
	// Same features, different wiring → different output (the GNN actually
	// uses the adjacency).
	m := smallModel(7)
	rng := rand.New(rand.NewSource(8))
	f, adj := ringGraph(6, 6, rng)
	chain := linalg.New(6, 6)
	for i := 0; i < 6; i++ {
		chain.Set(i, i, 0.6)
		if i+1 < 6 {
			chain.Set(i, i+1, 0.2)
			chain.Set(i+1, i, 0.2)
		}
	}
	a := m.Predict(f, adj)
	b := m.Predict(f, chain)
	if linalg.Equal(a, b, 1e-12) {
		t.Fatal("adjacency has no effect on prediction")
	}
}

func TestAttentionScores(t *testing.T) {
	m := smallModel(9)
	rng := rand.New(rand.NewSource(10))
	f, adj := ringGraph(7, 6, rng)
	scores := m.AttentionScores(f, adj)
	if len(scores) != 7 {
		t.Fatalf("got %d scores for 7 nodes", len(scores))
	}
	for i, s := range scores {
		if s <= 0 || s >= 1 {
			t.Fatalf("score %d = %v outside (0,1)", i, s)
		}
	}
}

func TestGNNTrainsOnSyntheticTarget(t *testing.T) {
	// The GNN must be able to fit a simple graph-level target (mean of a
	// feature column transformed) on a handful of graphs.
	rng := rand.New(rand.NewSource(11))
	m := smallModel(12)
	type sample struct {
		f, adj *linalg.Matrix
		y      float64
	}
	var data []sample
	for i := 0; i < 12; i++ {
		n := 3 + rng.Intn(5)
		f, adj := ringGraph(n, 6, rng)
		var mean float64
		for r := 0; r < n; r++ {
			mean += f.At(r, 0)
		}
		mean /= float64(n)
		data = append(data, sample{f, adj, 2 * mean})
	}
	opt := nn.NewAdam(0.01)
	var loss float64
	for epoch := 0; epoch < 150; epoch++ {
		loss = 0
		for _, s := range data {
			tape := autodiff.NewTape()
			out, pn := m.Forward(tape, tape.Const(s.f), tape.Const(s.adj))
			pred := autodiff.SliceCols(out, 0, 1)
			target := linalg.FromRows([][]float64{{s.y}})
			diff := autodiff.Sub(pred, tape.Const(target))
			l := autodiff.Mean(autodiff.Mul(diff, diff))
			autodiff.Backward(l)
			opt.Step(m.Params(), nn.GradsOf(pn))
			loss += l.Value.Data[0]
		}
		loss /= float64(len(data))
	}
	if loss > 0.05 {
		t.Fatalf("GNN failed to fit synthetic target: MSE %v", loss)
	}
}

func TestForwardOnGeneratedJob(t *testing.T) {
	g := workload.New(workload.TestConfig(20))
	job := g.Job()
	rng := rand.New(rand.NewSource(21))
	m := New(rng, DefaultConfig(features.OperatorDim))
	f := features.OperatorMatrix(job)
	adj := features.NormalizedAdjacency(job)
	out := m.Predict(f, adj)
	if out.Rows != 1 || out.Cols != 2 {
		t.Fatalf("output %dx%d", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite output %v", out.Data)
		}
	}
}

// Infer is the inference path and Forward the training path; they must
// agree to the last bit on graphs of every size, the single node included.
func TestInferMatchesTapeForwardBitForBit(t *testing.T) {
	m := smallModel(5)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 9, 40} {
		f, adj := ringGraph(n, 6, rng)
		tape := autodiff.NewTape()
		want, _ := m.Forward(tape, tape.Const(f), tape.Const(adj))
		got := m.Predict(f, adj)
		for i, w := range want.Value.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%d nodes, output %d: Infer %v, tape %v", n, i, got.Data[i], w)
			}
		}
		if scores := m.AttentionScores(f, adj); len(scores) != n {
			t.Fatalf("%d attention scores for %d nodes", len(scores), n)
		}
	}
}
