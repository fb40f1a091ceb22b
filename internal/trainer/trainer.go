package trainer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tasq/internal/arepas"
	"tasq/internal/autotoken"
	"tasq/internal/features"
	"tasq/internal/jobrepo"
	"tasq/internal/ml/gbt"
	"tasq/internal/ml/linalg"
	"tasq/internal/model"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// Config controls the end-to-end pipeline.
type Config struct {
	// TargetFractions define the AREPAS sweep used to synthesize PCC
	// targets; defaults to arepas.GridFractions.
	TargetFractions []float64
	// XGB configures the boosted-tree model; zero values take gbt
	// defaults with the Gamma objective.
	XGB gbt.Config
	// NN and GNN configure the neural models.
	NN, GNN NeuralConfig
	// SkipNN / SkipGNN disable the respective model (the GNN is by far
	// the most expensive to train — Table 7).
	SkipNN, SkipGNN bool
	// SplineLambda is the smoothing parameter for XGBoost SS curves.
	SplineLambda float64
	Seed         int64
	// Workers bounds the goroutines used for the AREPAS target sweep, the
	// XGBoost augmentation fan-out and batch prediction; ≤ 0 means
	// runtime.NumCPU, 1 the serial path. The trained pipeline is identical
	// at any worker count.
	Workers int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		TargetFractions: arepas.GridFractions,
		XGB: gbt.Config{
			NumTrees: 120, MaxDepth: 6, LearningRate: 0.1,
			Subsample: 0.9, Objective: gbt.Gamma, Seed: seed,
		},
		NN:           NeuralConfig{Loss: LF2, Seed: seed},
		GNN:          NeuralConfig{Loss: LF2, Epochs: 25, LearningRate: 0.003, Seed: seed},
		SplineLambda: 50,
		Seed:         seed,
	}
}

// Pipeline is a trained TASQ model suite.
type Pipeline struct {
	Config    Config
	Scaling   ParamScaling
	JobScaler *features.Scaler
	OpScaler  *features.Scaler
	XGB       *XGBModel
	NN        *NNModel
	GNN       *GNNModel
	// AutoToken is the §6.2 peak-only baseline, trained alongside the
	// curve models so it is servable and shadow-comparable. It is nil
	// when the training set has no recurring jobs (pipelines persisted
	// before this field existed decode it as nil — untrained).
	AutoToken *autotoken.Model
	// TrainTargets are the AREPAS-derived PCC targets of the training
	// set, index-aligned with the training records.
	TrainTargets []Target
	// ScorePolicy overrides the ordered model-fallback chain used by
	// ScoreJob and OptimalTokens; empty means model.DefaultPolicy
	// (NN → GNN → XGBoost PL).
	ScorePolicy model.Policy

	// mux caches the predictor registry; built lazily on first use and
	// skipped by gob (unexported).
	muxOnce sync.Once
	mux     *model.Mux
}

// Train builds targets, fits scalers and trains the configured models on
// the historical records.
func Train(recs []*jobrepo.Record, cfg Config) (*Pipeline, error) {
	if len(recs) == 0 {
		return nil, errors.New("trainer: empty training set")
	}
	if len(cfg.TargetFractions) == 0 {
		cfg.TargetFractions = arepas.GridFractions
	}
	if cfg.SplineLambda <= 0 {
		cfg.SplineLambda = 50
	}
	if cfg.XGB.Objective != gbt.Gamma {
		cfg.XGB.Objective = gbt.Gamma
	}

	p := &Pipeline{Config: cfg}

	// PCC targets via AREPAS augmentation — each record's sweep is
	// independent, so fan out across workers.
	targets, err := parallel.Map(context.Background(), len(recs), cfg.Workers, func(i int) (Target, error) {
		return BuildTarget(recs[i], cfg.TargetFractions)
	})
	if err != nil {
		return nil, err
	}
	p.TrainTargets = targets
	p.Scaling = FitParamScaling(p.TrainTargets)

	// Feature scalers fitted on training data only.
	p.JobScaler = features.FitScaler(features.JobMatrix(jobrepo.Jobs(recs)))
	p.OpScaler = features.FitScaler(stackOperatorRows(recs))

	// XGBoost (always trained: the PCC baselines and LF3 depend on it).
	xgb, err := trainXGB(recs, p.JobScaler, cfg.XGB, cfg.Workers)
	if err != nil {
		return nil, err
	}
	p.XGB = xgb

	// XGBoost predictions at the observed token counts, for LF3.
	var xgbPreds []float64
	if needsXGBPreds(cfg) {
		xgbPreds, err = parallel.Map(context.Background(), len(recs), cfg.Workers, func(i int) (float64, error) {
			return xgb.PredictRuntime(recs[i].Job, recs[i].ObservedTokens), nil
		})
		if err != nil {
			return nil, err
		}
	}

	if !cfg.SkipNN {
		nnCfg := cfg.NN
		nnCfg.Seed = pickSeed(nnCfg.Seed, cfg.Seed)
		p.NN, err = trainNN(recs, p.TrainTargets, p.JobScaler, p.Scaling, lf3Preds(nnCfg, xgbPreds), nnCfg)
		if err != nil {
			return nil, err
		}
	}
	if !cfg.SkipGNN {
		gnnCfg := cfg.GNN
		gnnCfg.Seed = pickSeed(gnnCfg.Seed, cfg.Seed)
		p.GNN, err = trainGNN(recs, p.TrainTargets, p.OpScaler, p.Scaling, lf3Preds(gnnCfg, xgbPreds), gnnCfg)
		if err != nil {
			return nil, err
		}
	}

	// AutoToken baseline (§6.2): deterministic, cheap, and only possible
	// when the training set has recurring jobs — an all-ad-hoc set
	// leaves it untrained rather than failing the pipeline, mirroring
	// the coverage gap the paper highlights.
	if at, err := autotoken.Train(recs, autotoken.Config{}); err == nil {
		p.AutoToken = at
	}
	return p, nil
}

func needsXGBPreds(cfg Config) bool {
	return (!cfg.SkipNN && cfg.NN.Loss == LF3) || (!cfg.SkipGNN && cfg.GNN.Loss == LF3)
}

func lf3Preds(cfg NeuralConfig, preds []float64) []float64 {
	if cfg.Loss == LF3 {
		return preds
	}
	return nil
}

func pickSeed(own, fallback int64) int64 {
	if own != 0 {
		return own
	}
	return fallback
}

// stackOperatorRows concatenates every training job's operator feature
// rows into one matrix for fitting the operator-level scaler.
func stackOperatorRows(recs []*jobrepo.Record) *linalg.Matrix {
	var total int
	for _, rec := range recs {
		total += rec.Job.NumOperators()
	}
	out := linalg.New(total, features.OperatorDim)
	row := 0
	for _, rec := range recs {
		m := features.OperatorMatrix(rec.Job)
		for i := 0; i < m.Rows; i++ {
			copy(out.Row(row), m.Row(i))
			row++
		}
	}
	return out
}

// ScoreJob predicts a PCC for an incoming job from compile-time
// information alone — the scoring path of Figure 4. The predictor is
// chosen by the pipeline's Policy (default: NN, Table 7's recommended
// balance, falling back to GNN, then XGBoost PL anchored at the job's
// requested tokens) — the single fallback chain OptimalTokens shares.
func (p *Pipeline) ScoreJob(job *scopesim.Job) (pcc.Curve, string, error) {
	pr, err := p.policy().Select(p.Predictors())
	if err != nil {
		return pcc.Curve{}, "", err
	}
	curve, err := pr.PredictCurve(job)
	return curve, pr.Name(), err
}

// ErrNoTokenBound marks an optimal-token request with no usable search
// cap: neither the caller's maxTokens nor the record's observed token
// count is positive. Without a bound the §2.1 rule would silently run
// with maxTokens = minTokens = 1 and recommend 1 token for any curve —
// a garbage allocation, not an answer. Callers (the serving layer maps
// this to its 400 contract) must supply one of the two.
var ErrNoTokenBound = errors.New("trainer: no positive token bound for the optimal-token search")

// OptimalTokens runs the §2.1 rule on the policy-selected predictor's
// curve, anchored at the record's observed token count: the smallest
// allocation whose marginal gain per token falls below threshold. A
// non-positive maxTokens falls back to the record's observed tokens;
// when that is also non-positive the search has no cap and the call
// fails with ErrNoTokenBound.
func (p *Pipeline) OptimalTokens(rec *jobrepo.Record, maxTokens int, threshold float64) (int, error) {
	if maxTokens <= 0 {
		if rec.ObservedTokens <= 0 {
			return 0, fmt.Errorf("%w (job %s: max tokens %d, observed tokens %d)",
				ErrNoTokenBound, rec.Job.ID, maxTokens, rec.ObservedTokens)
		}
		maxTokens = rec.ObservedTokens
	}
	pr, err := p.policy().Select(p.Predictors())
	if err != nil {
		return 0, err
	}
	curve, err := model.CurveAt(pr, rec.Job, rec.ObservedTokens)
	if err != nil {
		return 0, err
	}
	return curve.OptimalTokens(1, maxTokens, threshold), nil
}
