package trainer

import (
	"fmt"
	"math"
	"math/rand"

	"tasq/internal/features"
	"tasq/internal/jobrepo"
	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/gnn"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/nn"
	"tasq/internal/scopesim"
)

// LossKind selects one of the paper's three loss functions (§4.5).
type LossKind int

// The loss functions of §4.5.
const (
	// LF1 is the single-component loss: MAE of the scaled curve parameters.
	LF1 LossKind = iota
	// LF2 adds a penalization term: MAE (in percentage) of the run time at
	// the observed token count, computed against ground truth only.
	LF2
	// LF3 further adds the mean absolute difference (in percentage)
	// between the neural and XGBoost run-time predictions at the observed
	// token count (transfer learning from XGBoost).
	LF3
)

// String names the loss.
func (k LossKind) String() string {
	switch k {
	case LF2:
		return "LF2"
	case LF3:
		return "LF3"
	default:
		return "LF1"
	}
}

// NeuralConfig controls NN/GNN training.
type NeuralConfig struct {
	Epochs        int     // at least 1
	LearningRate  float64 // Adam step size, positive
	Loss          LossKind
	RuntimeWeight float64 // LF2/LF3 run-time penalization weight, positive
}

// The knobs every model trains with: the width of each of the NN's two
// hidden layers, and LF3's XGBoost-transfer weight.
const (
	nnHidden       = 32
	transferWeight = 0.25
)

// validate refuses a setting that means nothing, naming the model.
func (c NeuralConfig) validate(model string) error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("trainer: %s epochs %d: must be at least 1", model, c.Epochs)
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1):
		return fmt.Errorf("trainer: %s learning rate %v: must be positive and finite", model, c.LearningRate)
	case !(c.RuntimeWeight > 0) || math.IsInf(c.RuntimeWeight, 1):
		return fmt.Errorf("trainer: %s run-time weight %v: must be positive and finite", model, c.RuntimeWeight)
	}
	return nil
}

// logRuntimeClamp bounds the predicted log run time during training; e^30
// seconds is far beyond any job, so the clamp only guards early-training
// numerical blowups.
const logRuntimeClamp = 30

// signSafeParams maps a 2-column raw network output to the power-law
// parameters with the guaranteed sign configuration: a = −softplus(u₁) ≤ 0
// and log b = μ_b + σ_b·u₂ (so b = e^{log b} > 0). With b positive and a
// non-positive, the predicted PCC is monotone non-increasing by
// construction — the §4.5 guarantee.
func signSafeParams(raw *autodiff.Node, scaling ParamScaling) (a, logb *autodiff.Node) {
	u1 := autodiff.SliceCols(raw, 0, 1)
	u2 := autodiff.SliceCols(raw, 1, 2)
	a = autodiff.Neg(autodiff.Softplus(u1))
	logb = autodiff.AddScalar(autodiff.Scale(u2, scaling.LogB.Std), scaling.LogB.Mean)
	return a, logb
}

// signSafeTarget is signSafeParams on one raw 1 x 2 output, without a
// tape. The conversion keeps u₂·σ_b a rounded product, as the tape's Scale
// node does, on targets where the compiler would otherwise fuse it with the
// addition.
func signSafeTarget(raw *linalg.Matrix, scaling ParamScaling) Target {
	u1, u2 := raw.Data[0], raw.Data[1]
	return Target{
		A:    autodiff.SoftplusOf(u1) * -1,
		LogB: float64(u2*scaling.LogB.Std) + scaling.LogB.Mean,
	}
}

// neuralLoss assembles the configured loss from predicted parameter nodes
// and per-sample constants. a and logb are n x 1 nodes; the constants are
// n x 1 matrices: scaled targets (za, zb), log of observed tokens, inverse
// observed run time, and (for LF3) inverse XGBoost prediction times the
// XGBoost prediction difference base.
type lossInputs struct {
	za, zb     *linalg.Matrix // scaled true parameters
	logTokens  *linalg.Matrix // log(observed token count)
	runtime    *linalg.Matrix // observed run time (seconds)
	invRuntime *linalg.Matrix // 1/observed run time
	xgbPred    *linalg.Matrix // XGBoost run-time prediction (LF3); may be nil
	invXgbPred *linalg.Matrix
}

func neuralLoss(tape *autodiff.Tape, a, logb *autodiff.Node, in lossInputs, scaling ParamScaling, cfg NeuralConfig) *autodiff.Node {
	// Component 1 (all losses): MAE of scaled curve parameters.
	zaPred := autodiff.Scale(autodiff.AddScalar(a, -scaling.A.Mean), 1/scaling.A.Std)
	zbPred := autodiff.Scale(autodiff.AddScalar(logb, -scaling.LogB.Mean), 1/scaling.LogB.Std)
	lossA := autodiff.Mean(autodiff.Abs(autodiff.Sub(zaPred, tape.Const(in.za))))
	lossB := autodiff.Mean(autodiff.Abs(autodiff.Sub(zbPred, tape.Const(in.zb))))
	loss := autodiff.Scale(autodiff.Add(lossA, lossB), 0.5)
	if cfg.Loss == LF1 {
		return loss
	}

	// Component 2 (LF2, LF3): run-time MAE% at the observed token count,
	// against ground truth only.
	logRT := autodiff.Clamp(autodiff.Add(logb, autodiff.Mul(a, tape.Const(in.logTokens))), -logRuntimeClamp, logRuntimeClamp)
	predRT := autodiff.Exp(logRT)
	rtErr := autodiff.Mul(autodiff.Abs(autodiff.Sub(predRT, tape.Const(in.runtime))), tape.Const(in.invRuntime))
	loss = autodiff.Add(loss, autodiff.Scale(autodiff.Mean(rtErr), cfg.RuntimeWeight))
	if cfg.Loss == LF2 || in.xgbPred == nil {
		return loss
	}

	// Component 3 (LF3): percentage gap to the XGBoost prediction.
	xgbErr := autodiff.Mul(autodiff.Abs(autodiff.Sub(predRT, tape.Const(in.xgbPred))), tape.Const(in.invXgbPred))
	return autodiff.Add(loss, autodiff.Scale(autodiff.Mean(xgbErr), transferWeight))
}

// NNModel is the feed-forward predictor of §4.4: aggregated job-level
// features to the two PCC parameters through the sign-safe head.
type NNModel struct {
	MLP     *nn.MLP
	Scaler  *features.Scaler
	Scaling ParamScaling
	Cfg     NeuralConfig
}

// NumParams reports the parameter count (Table 7).
func (m *NNModel) NumParams() int { return m.MLP.NumParams() }

// trainNN fits the NN with full-batch Adam on the configured loss.
// xgbPreds may be nil unless cfg.Loss == LF3.
func trainNN(recs []*jobrepo.Record, targets []Target, scaler *features.Scaler,
	scaling ParamScaling, xgbPreds []float64, cfg NeuralConfig, seed int64) (*NNModel, error) {

	if len(recs) == 0 {
		return nil, fmt.Errorf("trainer: no NN training records")
	}
	if len(recs) != len(targets) {
		return nil, fmt.Errorf("trainer: %d records vs %d targets", len(recs), len(targets))
	}
	rng := rand.New(rand.NewSource(seed))
	dims := []int{features.JobDim, nnHidden, nnHidden, 2}
	model := &NNModel{MLP: nn.NewMLP(rng, dims, nn.ActReLU), Scaler: scaler, Scaling: scaling, Cfg: cfg}

	x := linalg.New(len(recs), features.JobDim)
	for i, rec := range recs {
		features.FillJobVector(x.Row(i), rec.Job)
		scaler.Apply(x.Row(i))
	}
	in, err := buildLossInputs(recs, targets, scaling, xgbPreds, cfg.Loss)
	if err != nil {
		return nil, err
	}

	opt := nn.NewAdam(cfg.LearningRate)
	params := model.MLP.Params()
	tape := autodiff.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		raw, paramNodes := model.MLP.Forward(tape, tape.Const(x))
		neuralStep(tape, opt, params, raw, paramNodes, in, scaling, cfg)
	}
	return model, nil
}

// neuralStep finishes one optimizer step from the network's raw output:
// sign-safe head, configured loss, Backward, Adam update. Only then does it
// recycle the tape: the gradients Adam reads live in the tape's arena.
func neuralStep(tape *autodiff.Tape, opt *nn.Adam, params []*linalg.Matrix,
	raw *autodiff.Node, paramNodes []*autodiff.Node, in lossInputs, scaling ParamScaling, cfg NeuralConfig) {

	a, logb := signSafeParams(raw, scaling)
	autodiff.Backward(neuralLoss(tape, a, logb, in, scaling, cfg))
	opt.Step(params, nn.GradsOf(paramNodes))
	tape.Reset()
}

// PredictTarget returns the predicted PCC parameters for a job from its
// compile-time features only.
func (m *NNModel) PredictTarget(job *scopesim.Job) Target {
	sc := linalg.GetScratch()
	defer sc.Release()
	x := sc.Matrix(1, features.JobDim)
	features.FillJobVector(x.Data, job)
	m.Scaler.Apply(x.Data)
	return signSafeTarget(m.MLP.Infer(sc, x), m.Scaling)
}

// GNNModel is the graph predictor of §4.4: operator-level features and the
// plan DAG through GCN + attention to the two PCC parameters.
type GNNModel struct {
	Net      *gnn.Model
	OpScaler *features.Scaler
	Scaling  ParamScaling
	Cfg      NeuralConfig
}

// NumParams reports the parameter count (Table 7).
func (m *GNNModel) NumParams() int { return m.Net.NumParams() }

// trainGNN fits the GNN with per-graph Adam steps on the configured loss.
func trainGNN(recs []*jobrepo.Record, targets []Target, opScaler *features.Scaler,
	scaling ParamScaling, xgbPreds []float64, cfg NeuralConfig, seed int64) (*GNNModel, error) {

	if len(recs) == 0 {
		return nil, fmt.Errorf("trainer: no GNN training records")
	}
	if len(recs) != len(targets) {
		return nil, fmt.Errorf("trainer: %d records vs %d targets", len(recs), len(targets))
	}
	rng := rand.New(rand.NewSource(seed))
	net := gnn.New(rng, gnn.DefaultConfig(features.OperatorDim))
	model := &GNNModel{Net: net, OpScaler: opScaler, Scaling: scaling, Cfg: cfg}

	in, err := buildLossInputs(recs, targets, scaling, xgbPreds, cfg.Loss)
	if err != nil {
		return nil, err
	}

	opt := nn.NewAdam(cfg.LearningRate)
	params := net.Params()
	tape := autodiff.NewTape()
	order := rng.Perm(len(recs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			f, adj := graphInputs(tape.Matrix, opScaler, recs[i].Job)
			raw, paramNodes := net.Forward(tape, tape.Const(f), tape.Const(adj))
			neuralStep(tape, opt, params, raw, paramNodes, in.row(tape, i), scaling, cfg)
		}
	}
	return model, nil
}

// PredictTarget returns the predicted PCC parameters for a job from its
// compile-time plan only.
func (m *GNNModel) PredictTarget(job *scopesim.Job) Target {
	sc := linalg.GetScratch()
	defer sc.Release()
	f, adj := graphInputs(sc.Matrix, m.OpScaler, job)
	return signSafeTarget(m.Net.Infer(sc, f, adj), m.Scaling)
}

// graphInputs featurizes the job's plan into matrices from alloc (a
// training tape's arena or an inference scratch): the operator matrix
// scaled by opScaler and the normalized adjacency.
func graphInputs(alloc func(rows, cols int) *linalg.Matrix, opScaler *features.Scaler, job *scopesim.Job) (f, adj *linalg.Matrix) {
	n := len(job.Operators)
	f = alloc(n, features.OperatorDim)
	features.FillOperatorMatrix(f, job)
	opScaler.ApplyMatrix(f)
	adj = alloc(n, n)
	features.FillNormalizedAdjacency(adj, job)
	return f, adj
}

// AttentionScores exposes the GNN's per-operator attention for
// interpretability.
func (m *GNNModel) AttentionScores(job *scopesim.Job) []float64 {
	sc := linalg.GetScratch()
	defer sc.Release()
	return m.Net.AttentionScores(graphInputs(sc.Matrix, m.OpScaler, job))
}

// buildLossInputs assembles the constant matrices for the loss.
func buildLossInputs(recs []*jobrepo.Record, targets []Target, scaling ParamScaling,
	xgbPreds []float64, kind LossKind) (lossInputs, error) {

	n := len(recs)
	in := lossInputs{
		za: linalg.New(n, 1), zb: linalg.New(n, 1),
		logTokens: linalg.New(n, 1), runtime: linalg.New(n, 1), invRuntime: linalg.New(n, 1),
	}
	if kind == LF3 {
		if len(xgbPreds) != n {
			return lossInputs{}, fmt.Errorf("trainer: LF3 needs %d XGBoost predictions, got %d", n, len(xgbPreds))
		}
		in.xgbPred = linalg.New(n, 1)
		in.invXgbPred = linalg.New(n, 1)
	}
	for i, rec := range recs {
		za, zb := scaling.Scale(targets[i])
		in.za.Data[i] = za
		in.zb.Data[i] = zb
		in.logTokens.Data[i] = math.Log(float64(max(rec.ObservedTokens, 1)))
		rt := float64(max(rec.RuntimeSeconds, 1))
		in.runtime.Data[i] = rt
		in.invRuntime.Data[i] = 1 / rt
		if in.xgbPred != nil {
			p := xgbPreds[i]
			if p < 1 {
				p = 1
			}
			in.xgbPred.Data[i] = p
			in.invXgbPred.Data[i] = 1 / p
		}
	}
	return in, nil
}

// row extracts the single-sample slice of the loss inputs for per-graph
// GNN training, as 1x1 constants carved from the step's tape (valid until
// its Reset) rather than seven fresh matrices a step.
func (in lossInputs) row(tape *autodiff.Tape, i int) lossInputs {
	pick := func(m *linalg.Matrix) *linalg.Matrix {
		if m == nil {
			return nil
		}
		out := tape.Matrix(1, 1)
		out.Data[0] = m.Data[i]
		return out
	}
	return lossInputs{
		za: pick(in.za), zb: pick(in.zb),
		logTokens: pick(in.logTokens), runtime: pick(in.runtime), invRuntime: pick(in.invRuntime),
		xgbPred: pick(in.xgbPred), invXgbPred: pick(in.invXgbPred),
	}
}
