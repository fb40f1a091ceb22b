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
	"tasq/internal/model"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// Config controls the end-to-end pipeline. DefaultConfig states every
// field; Train refuses a value that means nothing rather than substituting
// one.
type Config struct {
	// XGB configures the boosted-tree model, which must use the Gamma
	// objective; its Seed drives the booster's row subsampling.
	XGB gbt.Config
	// NN and GNN configure the neural models.
	NN, GNN NeuralConfig
	// SkipNN / SkipGNN disable the respective model (the GNN is by far
	// the most expensive to train — Table 7).
	SkipNN, SkipGNN bool
	// Seed seeds the NN and GNN: their initial weights and the GNN's
	// sample order.
	Seed int64
	// Workers bounds the goroutines used for the AREPAS target sweep, the
	// XGBoost augmentation fan-out and batch prediction; ≤ 0 means
	// runtime.NumCPU, 1 the serial path. The trained pipeline is identical
	// at any worker count.
	Workers int
}

// DefaultConfig returns the configuration used by the experiments: 120
// Gamma trees over 90% row samples, NN and GNN under LF2, every model
// seeded by seed.
func DefaultConfig(seed int64) Config {
	xgb := gbt.DefaultConfig()
	xgb.NumTrees = 120
	xgb.Subsample = 0.9
	xgb.Objective = gbt.Gamma
	xgb.Seed = seed
	return Config{
		XGB:  xgb,
		NN:   NeuralConfig{Epochs: 120, LearningRate: 0.005, Loss: LF2, RuntimeWeight: 0.5},
		GNN:  NeuralConfig{Epochs: 25, LearningRate: 0.003, Loss: LF2, RuntimeWeight: 0.5},
		Seed: seed,
	}
}

// targetFractions is the AREPAS sweep every PCC target is fitted to, in
// training and in evaluation.
var targetFractions = arepas.GridFractions

// Validate refuses a configuration that means nothing: an objective other
// than Gamma, or an unusable NN or GNN setting, whether or not that model
// is skipped. The booster's own settings are refused by gbt.Train.
func (c Config) Validate() error {
	if c.XGB.Objective != gbt.Gamma {
		return fmt.Errorf("trainer: XGBoost objective %v: must be gamma", c.XGB.Objective)
	}
	if err := c.NN.validate("NN"); err != nil {
		return err
	}
	return c.GNN.validate("GNN")
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("trainer: empty training set")
	}

	p := &Pipeline{Config: cfg}

	// PCC targets via AREPAS augmentation — each record's sweep is
	// independent, so fan out across workers.
	targets, err := parallel.Map(context.Background(), len(recs), cfg.Workers, func(i int) (Target, error) {
		return BuildTarget(recs[i], targetFractions)
	})
	if err != nil {
		return nil, err
	}
	p.TrainTargets = targets
	p.Scaling = FitParamScaling(p.TrainTargets)

	// Feature scalers fitted on training data only.
	jobs := jobrepo.Jobs(recs)
	p.JobScaler = features.FitJobScaler(jobs)
	p.OpScaler = features.FitOperatorScaler(jobs)

	// XGBoost (always trained: the PCC baselines and LF3 depend on it).
	xgb, err := TrainXGB(recs, p.JobScaler, cfg.XGB, cfg.Workers)
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
		p.NN, err = trainNN(recs, p.TrainTargets, p.JobScaler, p.Scaling, lf3Preds(cfg.NN, xgbPreds), cfg.NN, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if !cfg.SkipGNN {
		p.GNN, err = trainGNN(recs, p.TrainTargets, p.OpScaler, p.Scaling, lf3Preds(cfg.GNN, xgbPreds), cfg.GNN, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}

	// AutoToken baseline (§6.2): deterministic, cheap, and only possible
	// when the training set has recurring jobs — an all-ad-hoc set
	// leaves it untrained rather than failing the pipeline, mirroring
	// the coverage gap the paper highlights.
	if at, err := autotoken.Train(recs, autotoken.DefaultConfig()); err == nil {
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
	curve, err := pr.PredictCurveAt(rec.Job, rec.ObservedTokens)
	if err != nil {
		return 0, err
	}
	return curve.OptimalTokens(1, maxTokens, threshold), nil
}
