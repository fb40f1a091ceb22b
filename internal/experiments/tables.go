package experiments

import (
	"errors"
	"fmt"
	"time"

	"tasq/internal/features"
	"tasq/internal/flight"
	"tasq/internal/ml/autodiff"
	"tasq/internal/ml/gnn"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/nn"
	"tasq/internal/model"
	"tasq/internal/trainer"
)

// ----------------------------------------------------------------- Table 3

// Table3Result reproduces Table 3: AREPAS accuracy against flighted ground
// truth for the non-anomalous and fully-matched subsets.
type Table3Result struct {
	NonAnomalous, FullyMatched *flight.ArepasReport
}

// Table3 validates AREPAS on the suite's flighted dataset.
func Table3(s *Suite) (*Table3Result, error) {
	if s.Flights == nil {
		return nil, errors.New("experiments: suite has no flighted dataset")
	}
	nonAnom, err := flight.ValidateArepas(s.Flights.Jobs)
	if err != nil {
		return nil, err
	}
	full, err := flight.ValidateArepas(s.Flights.FullyMatched(0.3))
	if err != nil {
		return nil, err
	}
	return &Table3Result{NonAnomalous: nonAnom, FullyMatched: full}, nil
}

// Render prints the Table 3 rows.
func (r *Table3Result) Render() string {
	rows := [][]string{
		{"Non-anomalous subset", fmt.Sprintf("%d", r.NonAnomalous.Comparisons), pct1(r.NonAnomalous.MedianAPE), pct1(r.NonAnomalous.MeanAPE)},
		{"Fully-matched subset", fmt.Sprintf("%d", r.FullyMatched.Comparisons), pct1(r.FullyMatched.MedianAPE), pct1(r.FullyMatched.MeanAPE)},
	}
	return textTable("Table 3 — AREPAS error compared to ground truth:",
		[]string{"Job Groups", "N Executions", "MedianAPE", "MeanAPE"}, rows)
}

// ------------------------------------------------------------- Tables 4–6

// TableModelsResult reproduces one of Tables 4–6: the four-model
// comparison under a given loss function on the historical test day.
type TableModelsResult struct {
	Loss  trainer.LossKind
	Rows  []trainer.ModelEval
	Table int // 4, 5 or 6
}

// TableModels trains (or reuses) a pipeline whose NN/GNN use the given
// loss and evaluates it on the historical test set.
func TableModels(s *Suite, loss trainer.LossKind) (*TableModelsResult, error) {
	p, err := s.pipelineForLoss(loss)
	if err != nil {
		return nil, err
	}
	rows, err := p.EvaluateHistorical(s.Test)
	if err != nil {
		return nil, err
	}
	trainer.SortEvals(rows)
	return &TableModelsResult{Loss: loss, Rows: rows, Table: 4 + int(loss)}, nil
}

// Table4 evaluates under LF1.
func Table4(s *Suite) (*TableModelsResult, error) { return TableModels(s, trainer.LF1) }

// Table5 evaluates under LF2.
func Table5(s *Suite) (*TableModelsResult, error) { return TableModels(s, trainer.LF2) }

// Table6 evaluates under LF3.
func Table6(s *Suite) (*TableModelsResult, error) { return TableModels(s, trainer.LF3) }

// Render prints the model-comparison table.
func (r *TableModelsResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, e := range r.Rows {
		rows = append(rows, []string{e.Model, pct(e.Pattern), num(e.ParamMAE), pct(e.RuntimeMedianAE)})
	}
	return textTable(
		fmt.Sprintf("Table %d — results for loss function %s:", r.Table, r.Loss),
		[]string{"Model", "Pattern (Non-Increase)", "MAE (Curve Params)", "Median AE (Run Time)"}, rows)
}

// pipelineForLoss reuses the suite pipeline when its loss matches,
// otherwise trains NN/GNN variants (XGBoost is loss-independent but is
// retrained with the same seed, which reproduces identical trees). Safe
// for concurrent use: each loss variant is trained exactly once, and
// distinct losses train concurrently.
func (s *Suite) pipelineForLoss(loss trainer.LossKind) (*trainer.Pipeline, error) {
	if s.Pipeline != nil && s.Config.Trainer.NN.Loss == loss && s.Config.Trainer.GNN.Loss == loss {
		return s.Pipeline, nil
	}
	s.lossMu.Lock()
	if s.lossSlots == nil {
		s.lossSlots = make(map[trainer.LossKind]*lossSlot)
	}
	slot, ok := s.lossSlots[loss]
	if !ok {
		slot = &lossSlot{}
		s.lossSlots[loss] = slot
	}
	s.lossMu.Unlock()
	slot.once.Do(func() {
		cfg := s.Config.Trainer
		cfg.NN.Loss = loss
		cfg.GNN.Loss = loss
		slot.p, slot.err = trainer.Train(s.Train, cfg)
		if slot.err != nil {
			return
		}
		s.lossMu.Lock()
		if s.lossPipelines == nil {
			s.lossPipelines = make(map[trainer.LossKind]*trainer.Pipeline)
		}
		s.lossPipelines[loss] = slot.p
		s.lossMu.Unlock()
	})
	return slot.p, slot.err
}

// ----------------------------------------------------------------- Table 7

// Table7Row is one model's cost profile.
type Table7Row struct {
	Model                string
	NumParams            int
	TrainSecondsPerEpoch float64
	InferSecondsPer10K   float64
}

// Table7Result reproduces Table 7: parameter counts, training time per
// epoch and inference time per 10,000 jobs for NN vs GNN.
type Table7Result struct {
	Rows []Table7Row
}

// Table7 measures the suite's trained models on the training set.
func Table7(s *Suite) (*Table7Result, error) {
	if s.Pipeline == nil || s.Pipeline.NN == nil || s.Pipeline.GNN == nil {
		return nil, errors.New("experiments: Table 7 needs trained NN and GNN")
	}
	nnRow, err := measureNN(s)
	if err != nil {
		return nil, err
	}
	gnnRow, err := measureGNN(s)
	if err != nil {
		return nil, err
	}
	return &Table7Result{Rows: []Table7Row{nnRow, gnnRow}}, nil
}

func measureNN(s *Suite) (Table7Row, error) {
	row := Table7Row{Model: trainer.ModelNN, NumParams: s.Pipeline.NN.NumParams()}
	// One full-batch forward+backward pass over the training set is one
	// epoch of NN training.
	x := linalg.New(len(s.Train), features.JobDim)
	for i, rec := range s.Train {
		features.FillJobVector(x.Row(i), rec.Job)
		s.Pipeline.JobScaler.Apply(x.Row(i))
	}
	mlp := nnClone(s)
	start := time.Now()
	tape := autodiff.NewTape()
	out, _ := mlp.Forward(tape, tape.Const(x))
	autodiff.Backward(autodiff.Mean(autodiff.Abs(out)))
	row.TrainSecondsPerEpoch = time.Since(start).Seconds()

	// Inference over the test set, scaled to 10K jobs.
	start = time.Now()
	for _, rec := range s.Test {
		s.Pipeline.NN.PredictTarget(rec.Job)
	}
	row.InferSecondsPer10K = time.Since(start).Seconds() / float64(len(s.Test)) * 10_000
	return row, nil
}

func measureGNN(s *Suite) (Table7Row, error) {
	row := Table7Row{Model: trainer.ModelGNN, NumParams: s.Pipeline.GNN.NumParams()}
	// One epoch of GNN training = one forward+backward per training graph;
	// measure on a sample and scale.
	sample := s.Train
	const sampleCap = 64
	if len(sample) > sampleCap {
		sample = sample[:sampleCap]
	}
	net := gnnClone(s)
	start := time.Now()
	// One tape recycled per graph, as trainGNN runs it.
	tape := autodiff.NewTape()
	for _, rec := range sample {
		f := features.OperatorMatrix(rec.Job)
		s.Pipeline.OpScaler.ApplyMatrix(f)
		adj := features.NormalizedAdjacency(rec.Job)
		out, _ := net.Forward(tape, tape.Const(f), tape.Const(adj))
		autodiff.Backward(autodiff.Mean(autodiff.Abs(out)))
		tape.Reset()
	}
	row.TrainSecondsPerEpoch = time.Since(start).Seconds() / float64(len(sample)) * float64(len(s.Train))

	infSample := s.Test
	if len(infSample) > sampleCap {
		infSample = infSample[:sampleCap]
	}
	start = time.Now()
	for _, rec := range infSample {
		s.Pipeline.GNN.PredictTarget(rec.Job)
	}
	row.InferSecondsPer10K = time.Since(start).Seconds() / float64(len(infSample)) * 10_000
	return row, nil
}

// nnClone builds an untrained NN with the trained pipeline's layer widths
// for timing (training mutates parameters; timing must not).
func nnClone(s *Suite) *nn.MLP {
	layers := s.Pipeline.NN.MLP.Layers
	dims := []int{layers[0].W.Rows}
	for _, l := range layers {
		dims = append(dims, l.W.Cols)
	}
	return nn.NewMLP(newRand(s.Config.Seed), dims, nn.ActReLU)
}

func gnnClone(s *Suite) *gnn.Model {
	return gnn.New(newRand(s.Config.Seed), gnn.DefaultConfig(features.OperatorDim))
}

// Render prints the cost comparison.
func (r *Table7Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Model,
			fmt.Sprintf("%d", row.NumParams),
			fmt.Sprintf("%.3f", row.TrainSecondsPerEpoch),
			fmt.Sprintf("%.3f", row.InferSecondsPer10K),
		})
	}
	return textTable("Table 7 — parameter counts, training and inference times:",
		[]string{"Model", "Parameters", "Train s/epoch", "Inference s/10K jobs"}, rows)
}

// ----------------------------------------------------------------- Table 8

// Table8Result reproduces Table 8: model accuracy on the flighted dataset
// plus the W1/W2 workload-level token-savings analysis of §5.4.
type Table8Result struct {
	Rows    []trainer.ModelEval
	Savings []trainer.WorkloadSavings
	Jobs    int
	Runs    int
}

// Table8 evaluates the suite pipeline on the flighted dataset.
func Table8(s *Suite) (*Table8Result, error) {
	if s.Flights == nil {
		return nil, errors.New("experiments: suite has no flighted dataset")
	}
	rows, err := s.Pipeline.EvaluateFlighted(s.Flights)
	if err != nil {
		return nil, err
	}
	trainer.SortEvals(rows)
	// The §5.4 savings analysis prefers the GNN curve, falling back to
	// the NN — expressed as a policy over the predictor registry.
	pr, err := model.Policy{model.NameGNN, model.NameNN}.Select(s.Pipeline.Predictors())
	if err != nil {
		return nil, err
	}
	savings, err := trainer.EvaluateWorkloadSavings(s.Flights, trainer.RecordPredictor(pr))
	if err != nil {
		return nil, err
	}
	return &Table8Result{Rows: rows, Savings: savings, Jobs: len(s.Flights.Jobs), Runs: s.Flights.TotalRuns}, nil
}

// Render prints the flighted comparison and the workload analysis.
func (r *Table8Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, e := range r.Rows {
		rows = append(rows, []string{e.Model, pct(e.Pattern), num(e.ParamMAE), pct(e.RuntimeMedianAE)})
	}
	out := textTable(
		fmt.Sprintf("Table 8 — results on the flighted dataset (%d jobs, %d runs):", r.Jobs, r.Runs),
		[]string{"Model", "Pattern (Non-Increase)", "MAE (Curve Params)", "Median AE (Run Time)"}, rows)
	srows := make([][]string, 0, len(r.Savings))
	for _, w := range r.Savings {
		srows = append(srows, []string{
			w.Name,
			fmt.Sprintf("%d", w.Tokens), fmt.Sprintf("%d", w.BaselineTokens),
			pct(w.TokenSavings), pct(w.ActualSlowdown), pct(w.PredictedSlowdown),
		})
	}
	return out + textTable("Workload-level token savings (§5.4):",
		[]string{"Workload", "Tokens", "Baseline", "Savings", "Actual slowdown", "Predicted slowdown"}, srows)
}

// ----------------------------------------------- §5.1 monotonicity check

// MonotonicityResult reproduces the §5.1 validation: the fraction of
// flighted jobs whose run times decrease monotonically with tokens within
// the 10% tolerance.
type MonotonicityResult struct {
	Satisfying, Violating int
	Fraction              float64
}

// MonotonicityValidation reads the flight filters' outcome.
func MonotonicityValidation(s *Suite) (*MonotonicityResult, error) {
	if s.Flights == nil {
		return nil, errors.New("experiments: suite has no flighted dataset")
	}
	ok := len(s.Flights.Jobs)
	bad := s.Flights.RejectedNonMonotone
	total := ok + bad
	if total == 0 {
		return nil, errors.New("experiments: no flighted jobs to validate")
	}
	return &MonotonicityResult{
		Satisfying: ok,
		Violating:  bad,
		Fraction:   float64(ok) / float64(total),
	}, nil
}

// Render prints the validation line.
func (r *MonotonicityResult) Render() string {
	return fmt.Sprintf("§5.1 monotonicity validation — %s of flighted jobs satisfy the constraint within 10%% tolerance (%d of %d; %d violations).\n",
		pct(r.Fraction), r.Satisfying, r.Satisfying+r.Violating, r.Violating)
}
