package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/model"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/stats"
)

// Model names used in evaluation reports, matching the paper's tables.
// They alias the canonical names of the model package's predictor
// registry, so report rows and /v1/score routing agree on spelling.
const (
	ModelXGBSS = model.NameXGBSS
	ModelXGBPL = model.NameXGBPL
	ModelNN    = model.NameNN
	ModelGNN   = model.NameGNN
)

// ModelEval is one row of Tables 4–6 / Table 8.
type ModelEval struct {
	Model string
	// Pattern is the fraction of test jobs whose predicted PCC is
	// monotonically non-increasing.
	Pattern float64
	// ParamMAE is the mean absolute error of the scaled curve parameters;
	// NaN for XGBoost SS, which has no parametric curve.
	ParamMAE float64
	// RuntimeMedianAE is the median absolute run-time prediction error as
	// a fraction.
	RuntimeMedianAE float64
}

// EvaluateHistorical computes the Tables 4–6 metrics on a held-out
// historical test set: run-time error at the observed (reference) token
// count against ground truth, curve-parameter error against
// AREPAS-derived proxy targets, and the monotonicity pattern of predicted
// curves over the ±40% region.
func (p *Pipeline) EvaluateHistorical(test []*jobrepo.Record) ([]ModelEval, error) {
	if len(test) == 0 {
		return nil, errors.New("trainer: empty test set")
	}
	// Proxy-truth targets for the test set (the paper treats AREPAS output
	// as ground truth at unobserved token counts).
	jobs, err := parallel.Map(context.Background(), len(test), p.Config.Workers, func(i int) (evalJob, error) {
		rec := test[i]
		truth, err := BuildTarget(rec, targetFractions)
		if err != nil {
			return evalJob{}, err
		}
		return evalJob{
			rec:      rec,
			runs:     []pcc.Sample{{Tokens: float64(rec.ObservedTokens), Runtime: float64(rec.RuntimeSeconds)}},
			truth:    truth,
			hasTruth: true,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// XGBoost SS reads its smoothed grid at the reference.
	return p.evaluate(jobs, func(_ *jobrepo.Record, grid []int, smoothed []float64, tokens int) float64 {
		return valueAt(grid, smoothed, tokens)
	})
}

// EvaluateFlighted computes the Table 8 metrics against true re-executed
// run times: point predictions at every flighted token count, curve
// parameters against power laws fitted to the flighted runs, and the
// monotonicity pattern.
func (p *Pipeline) EvaluateFlighted(ds *flight.Dataset) ([]ModelEval, error) {
	if ds == nil || len(ds.Jobs) == 0 {
		return nil, errors.New("trainer: empty flighted dataset")
	}
	// Flighted ground-truth curve parameters per job (jobs whose runs
	// cannot be fitted are skipped for the parameter metric only).
	jobs, err := parallel.Map(context.Background(), len(ds.Jobs), p.Config.Workers, func(i int) (evalJob, error) {
		jf := ds.Jobs[i]
		j := evalJob{rec: jf.Record}
		for _, run := range jf.Runs {
			if run.RuntimeSeconds > 0 {
				j.runs = append(j.runs, pcc.Sample{Tokens: float64(run.Tokens), Runtime: float64(run.RuntimeSeconds)})
			}
		}
		if curve, err := pcc.Fit(j.runs); err == nil {
			j.truth, j.hasTruth = Target{A: curve.A, LogB: math.Log(curve.B)}, true
		}
		return j, nil
	})
	if err != nil {
		return nil, err
	}
	// XGBoost SS is queried raw: the spline is a local construction around
	// the reference, and flighted points at 20% sit outside it.
	return p.evaluate(jobs, func(rec *jobrepo.Record, _ []int, _ []float64, tokens int) float64 {
		return p.XGB.PredictRuntime(rec.Job, tokens)
	})
}

// evalJob is one test job of Tables 4–8: the record, the runs its run-time
// error is judged at, and its truth curve target if one could be fitted.
type evalJob struct {
	rec      *jobrepo.Record
	runs     []pcc.Sample
	truth    Target
	hasTruth bool
}

// jobRead is one model's answer for one evalJob.
type jobRead struct {
	monotone bool
	runtime  func(tokens float64) float64
	target   Target // curve parameters; unused for XGBoost SS
}

// evaluate scores XGBoost SS and every trained curve predictor on jobs.
// ssRuntime reads the SS run time at tokens given the job's smoothed curve
// over its ±40% region, the one place Tables 4–6 and Table 8 differ.
func (p *Pipeline) evaluate(jobs []evalJob, ssRuntime func(rec *jobrepo.Record, grid []int, smoothed []float64, tokens int) float64) ([]ModelEval, error) {
	score := func(name string, read func(evalJob) (jobRead, error)) (ModelEval, error) {
		reads, err := parallel.Map(context.Background(), len(jobs), p.Config.Workers, func(i int) (jobRead, error) {
			r, err := read(jobs[i])
			if err != nil {
				return jobRead{}, fmt.Errorf("trainer: %s on %s: %w", name, jobs[i].rec.Job.ID, err)
			}
			return r, nil
		})
		if err != nil {
			return ModelEval{}, err
		}
		var monotone int
		var preds, truthRT []float64
		var predT, truthT []Target
		for i, r := range reads {
			if r.monotone {
				monotone++
			}
			for _, run := range jobs[i].runs {
				preds = append(preds, r.runtime(run.Tokens))
				truthRT = append(truthRT, run.Runtime)
			}
			if jobs[i].hasTruth {
				predT = append(predT, r.target)
				truthT = append(truthT, jobs[i].truth)
			}
		}
		paramMAE := math.NaN() // SS has no parametric curve
		if name != ModelXGBSS {
			paramMAE = ParamMAE(p.Scaling, predT, truthT)
		}
		return ModelEval{
			Model:           name,
			Pattern:         float64(monotone) / float64(len(jobs)),
			ParamMAE:        paramMAE,
			RuntimeMedianAE: stats.MedianAPE(preds, truthRT),
		}, nil
	}

	ss, err := score(ModelXGBSS, func(j evalJob) (jobRead, error) {
		grid, smoothed, err := p.XGB.PredictCurveSS(j.rec.Job, j.rec.ObservedTokens)
		if err != nil {
			return jobRead{}, err
		}
		return jobRead{
			monotone: pcc.IsMonotoneNonIncreasing(smoothed, 0),
			runtime:  func(tokens float64) float64 { return ssRuntime(j.rec, grid, smoothed, int(tokens)) },
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := []ModelEval{ss}

	// Parametric curve models in table order (XGBoost PL, NN, GNN):
	// every trained, non-tabulated predictor of the registry, anchored
	// at each record's observed token count.
	for _, pr := range p.curvePredictors() {
		predict := RecordPredictor(pr)
		e, err := score(pr.Name(), func(j evalJob) (jobRead, error) {
			curve, err := predict(j.rec)
			if err != nil {
				return jobRead{}, err
			}
			return jobRead{
				monotone: curve.NonIncreasing(),
				runtime:  curve.Runtime,
				target:   Target{A: curve.A, LogB: math.Log(math.Max(curve.B, 1e-12))},
			}, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// WorkloadSavings is one workload row of the §5.4 token-savings analysis.
type WorkloadSavings struct {
	Name string
	// Tokens is the workload's total requested tokens; BaselineTokens is
	// the baseline's (largest flighted allocation per job).
	Tokens, BaselineTokens int
	// TokenSavings = 1 − Tokens/BaselineTokens.
	TokenSavings float64
	// ActualSlowdown and PredictedSlowdown are newtime/baselinetime − 1,
	// from flighted run times and from the model's predicted run times.
	ActualSlowdown, PredictedSlowdown float64
}

// EvaluateWorkloadSavings builds the paper's W1 (all flighted runs) and W2
// (second-largest allocation per job) workloads against the
// largest-allocation baseline, using predictCurve (e.g. the GNN) for the
// predicted slowdowns.
func EvaluateWorkloadSavings(ds *flight.Dataset, predictCurve func(*jobrepo.Record) (pcc.Curve, error)) ([]WorkloadSavings, error) {
	if ds == nil || len(ds.Jobs) == 0 {
		return nil, errors.New("trainer: empty flighted dataset")
	}
	var w1, w2 WorkloadSavings
	w1.Name, w2.Name = "W1", "W2"
	var w1Base, w2Base float64 // baseline run times
	var w1Time, w2Time float64
	var w1Pred, w2Pred float64
	var w1PredBase, w2PredBase float64

	for _, jf := range ds.Jobs {
		curve, err := predictCurve(jf.Record)
		if err != nil {
			return nil, err
		}
		ref := jf.Reference() // largest flighted allocation = baseline run
		for _, run := range jf.Runs {
			// W1: every flighted run at its flighted allocation; baseline
			// uses the largest allocation for each of those runs.
			w1.Tokens += run.Tokens
			w1.BaselineTokens += ref.Tokens
			w1Time += float64(run.RuntimeSeconds)
			w1Base += float64(ref.RuntimeSeconds)
			w1Pred += curve.Runtime(float64(run.Tokens))
			w1PredBase += curve.Runtime(float64(ref.Tokens))
		}
		// W2: one run per job at the second-largest flighted allocation.
		if len(jf.Runs) >= 2 {
			second := jf.Runs[1]
			w2.Tokens += second.Tokens
			w2.BaselineTokens += ref.Tokens
			w2Time += float64(second.RuntimeSeconds)
			w2Base += float64(ref.RuntimeSeconds)
			w2Pred += curve.Runtime(float64(second.Tokens))
			w2PredBase += curve.Runtime(float64(ref.Tokens))
		}
	}
	finish := func(w *WorkloadSavings, time, base, pred, predBase float64) {
		if w.BaselineTokens > 0 {
			w.TokenSavings = 1 - float64(w.Tokens)/float64(w.BaselineTokens)
		}
		if base > 0 {
			w.ActualSlowdown = time/base - 1
		}
		if predBase > 0 {
			w.PredictedSlowdown = pred/predBase - 1
		}
	}
	finish(&w1, w1Time, w1Base, w1Pred, w1PredBase)
	finish(&w2, w2Time, w2Base, w2Pred, w2PredBase)
	return []WorkloadSavings{w1, w2}, nil
}

// valueAt returns the runtime at the grid point closest to tokens.
func valueAt(grid []int, runtimes []float64, tokens int) float64 {
	if len(grid) == 0 {
		return math.NaN()
	}
	best := 0
	for i, g := range grid {
		if abs(g-tokens) < abs(grid[best]-tokens) {
			best = i
		}
	}
	return runtimes[best]
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SortEvals orders rows in the paper's table order: XGBoost SS, XGBoost
// PL, NN, GNN.
func SortEvals(evals []ModelEval) {
	order := map[string]int{ModelXGBSS: 0, ModelXGBPL: 1, ModelNN: 2, ModelGNN: 3}
	sort.SliceStable(evals, func(i, j int) bool { return order[evals[i].Model] < order[evals[j].Model] })
}
