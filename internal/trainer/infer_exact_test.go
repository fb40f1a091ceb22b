package trainer

import (
	"fmt"
	"math"
	"testing"

	"tasq/internal/features"
	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/spline"
	"tasq/internal/model"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// The serving path predicts through tape-free kernels (nn.MLP.Infer,
// gnn.Model.Infer) and hoisted XGBoost rows; training runs on the autodiff
// tape. These references are the tape (and the per-point XGBoost path) the
// way inference ran before the two were split, built from the allocating
// feature functions, so a kernel that reorders one addition shows up as a
// differing bit.

func tapeNNTarget(m *NNModel, job *scopesim.Job) Target {
	x := linalg.RowVector(m.Scaler.TransformRow(features.JobVector(job)))
	tape := autodiff.NewTape()
	raw, _ := m.MLP.Forward(tape, tape.Const(x))
	a, logb := signSafeParams(raw, m.Scaling)
	return Target{A: a.Value.Data[0], LogB: logb.Value.Data[0]}
}

func tapeGNNTarget(m *GNNModel, job *scopesim.Job) Target {
	f := m.OpScaler.Transform(features.OperatorMatrix(job))
	adj := features.NormalizedAdjacency(job)
	tape := autodiff.NewTape()
	raw, _ := m.Net.Forward(tape, tape.Const(f), tape.Const(adj))
	a, logb := signSafeParams(raw, m.Scaling)
	return Target{A: a.Value.Data[0], LogB: logb.Value.Data[0]}
}

// tapeAttention replays Forward's readout up to the attention scores.
func tapeAttention(m *GNNModel, job *scopesim.Job) []float64 {
	tape := autodiff.NewTape()
	h := tape.Const(m.OpScaler.Transform(features.OperatorMatrix(job)))
	adj := tape.Const(features.NormalizedAdjacency(job))
	n := len(job.Operators)
	for _, c := range m.Net.Convs {
		h = c.Forward(autodiff.MatMul(adj, h), tape.Const(c.W), tape.Const(c.B))
	}
	ones := linalg.New(1, n)
	for i := range ones.Data {
		ones.Data[i] = 1 / float64(n)
	}
	mean := autodiff.MatMul(tape.Const(ones), h)
	ctx := autodiff.Tanh(autodiff.MatMul(mean, tape.Const(m.Net.AttnW)))
	return autodiff.Sigmoid(autodiff.MatMul(h, autodiff.Transpose(ctx))).Value.Data
}

func perPointRuntime(m *XGBModel, job *scopesim.Job, tokens int) float64 {
	return m.Model.Predict(xgbRow(m.Scaler.TransformRow(features.JobVector(job)), tokens))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// exactnessJobs is the property test's population: generated recurring and
// ad-hoc jobs plus the two extremes of plan width — a single operator, and
// a plan twice as wide as anything generated, with duplicate edges, which
// the adjacency fill must count once.
func exactnessJobs(seed int64) []*scopesim.Job {
	jobs := workload.New(workload.TestConfig(seed)).Workload(220)
	widest := jobs[0]
	for _, j := range jobs {
		if len(j.Operators) > len(widest.Operators) {
			widest = j
		}
	}
	one := &scopesim.Job{
		ID: "one-operator", RequestedTokens: 7,
		Operators: []scopesim.Operator{widest.Operators[0]},
		Stages:    []scopesim.Stage{{ID: 0, Tasks: 3, TaskSeconds: 2, Operators: []int{0}}},
	}
	one.Operators[0].Children = nil
	wide := &scopesim.Job{ID: "widest", RequestedTokens: 900, Stages: widest.Stages}
	for len(wide.Operators) < 2*len(widest.Operators) {
		op := widest.Operators[len(wide.Operators)%len(widest.Operators)]
		op.ID = len(wide.Operators)
		op.Children = nil
		if op.ID > 0 {
			op.Children = []int{op.ID - 1, op.ID / 2, op.ID - 1}
		}
		wide.Operators = append(wide.Operators, op)
	}
	return append(jobs, one, wide)
}

func TestInferenceBitExactAgainstTape(t *testing.T) {
	for _, seed := range []int64{5, 17, 41} {
		for _, loss := range []LossKind{LF1, LF2, LF3} {
			seed, loss := seed, loss
			t.Run(fmt.Sprintf("seed=%d/loss=%s", seed, loss), func(t *testing.T) {
				t.Parallel()
				train, _ := dataset(t, 24, 0, seed)
				cfg := fastConfig(seed)
				cfg.NN.Epochs = 6
				cfg.GNN.Epochs = 1
				cfg.NN.Loss = loss
				cfg.GNN.Loss = loss
				p, err := Train(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, job := range exactnessJobs(seed + 100) {
					if got, want := p.NN.PredictTarget(job), tapeNNTarget(p.NN, job); !sameBits(got.A, want.A) || !sameBits(got.LogB, want.LogB) {
						t.Fatalf("NN on %s: inference %+v, tape %+v", job.ID, got, want)
					}
					if got, want := p.GNN.PredictTarget(job), tapeGNNTarget(p.GNN, job); !sameBits(got.A, want.A) || !sameBits(got.LogB, want.LogB) {
						t.Fatalf("GNN on %s: inference %+v, tape %+v", job.ID, got, want)
					}
					got, want := p.GNN.AttentionScores(job), tapeAttention(p.GNN, job)
					if len(got) != len(want) || len(got) != len(job.Operators) {
						t.Fatalf("attention on %s: %d scores, tape %d, %d operators", job.ID, len(got), len(want), len(job.Operators))
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("attention on %s, operator %d: inference %v, tape %v", job.ID, i, got[i], want[i])
						}
					}
					checkXGBHoisted(t, p, job)
				}
			})
		}
	}
}

// checkXGBHoisted rebuilds the PL and SS curves from per-point predictions,
// each over a freshly extracted and scaled row, and demands the bits of the
// hoisted constructors.
func checkXGBHoisted(t *testing.T, p *Pipeline, job *scopesim.Job) {
	t.Helper()
	ref := job.RequestedTokens
	grid := model.CurveRegion(ref)
	var samples []pcc.Sample
	for _, tok := range grid {
		rt := perPointRuntime(p.XGB, job, tok)
		if got := p.XGB.PredictRuntime(job, tok); !sameBits(got, rt) {
			t.Fatalf("XGBoost on %s at %d tokens: %v, per-point %v", job.ID, tok, got, rt)
		}
		if rt > 0 {
			samples = append(samples, pcc.Sample{Tokens: float64(tok), Runtime: rt})
		}
	}
	if len(samples) >= 2 {
		want, err := pcc.Fit(samples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.XGB.PredictCurvePL(job, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.A, want.A) || !sameBits(got.B, want.B) {
			t.Fatalf("XGBoost PL on %s: hoisted %+v, per-point %+v", job.ID, got, want)
		}
	}
	lambda := p.Config.SplineLambda
	gotGrid, smoothed, err := p.XGB.PredictCurveSS(job, ref, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotGrid) != len(grid) || len(smoothed) != len(grid) {
		t.Fatalf("XGBoost SS on %s: grid of %d, want %d", job.ID, len(gotGrid), len(grid))
	}
	xs := make([]float64, len(grid))
	want := make([]float64, len(grid))
	for i, tok := range grid {
		xs[i] = float64(tok)
		want[i] = perPointRuntime(p.XGB, job, tok)
	}
	if len(grid) >= 3 {
		sp, err := spline.Fit(xs, want, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want[i] = sp.At(x)
		}
	}
	for i, tok := range grid {
		if !sameBits(smoothed[i], want[i]) {
			t.Fatalf("XGBoost SS on %s at %d tokens: hoisted %v, per-point %v", job.ID, tok, smoothed[i], want[i])
		}
	}
}
