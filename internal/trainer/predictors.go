package trainer

import (
	"fmt"

	"tasq/internal/jobrepo"
	"tasq/internal/model"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// Predictors returns the pipeline's predictor mux: the four trained
// models in the paper's table order (XGBoost SS, XGBoost PL, NN, GNN)
// followed by the AutoToken baseline of §6.2. The mux is built on first
// use and cached; adapters read the pipeline's model fields live, so a
// pipeline trained with SkipGNN registers the GNN as present but
// untrained rather than omitting it — which is how the serving layer
// distinguishes "unknown model" (400) from "known but untrained" (409).
func (p *Pipeline) Predictors() *model.Mux {
	p.muxOnce.Do(func() { p.mux = p.buildMux() })
	return p.mux
}

func (p *Pipeline) buildMux() *model.Mux {
	m := model.NewMux()
	m.MustRegister(model.New(model.NameXGBSS, func() model.Meta {
		return model.Meta{
			Kind: model.KindTrained, Trained: p.XGB != nil, Tabulated: true,
			Provenance: "XGBoost point predictions smoothed by cubic spline over the ±40% region (§4.4); served curve fits a power law to the smoothed grid",
		}
	}, p.predictCurveSSFit))
	m.MustRegister(model.New(model.NameXGBPL, func() model.Meta {
		return model.Meta{
			Kind: model.KindTrained, Trained: p.XGB != nil,
			Provenance: "power law fitted to XGBoost point predictions over the ±40% region (§4.4)",
		}
	}, p.predictCurvePL))
	m.MustRegister(model.New(model.NameNN, func() model.Meta {
		return model.Meta{
			Kind: model.KindTrained, Trained: p.NN != nil,
			Provenance: "neural network predicting (a, log b) from job features with sign constraints (§4.5)",
		}
	}, func(job *scopesim.Job, _ int) (pcc.Curve, error) {
		if p.NN == nil {
			return pcc.Curve{}, fmt.Errorf("%w: %s", model.ErrUntrained, model.NameNN)
		}
		return p.NN.PredictTarget(job).Curve(), nil
	}))
	m.MustRegister(model.New(model.NameGNN, func() model.Meta {
		return model.Meta{
			Kind: model.KindTrained, Trained: p.GNN != nil,
			Provenance: "graph neural network over the operator DAG predicting (a, log b) (§4.6)",
		}
	}, func(job *scopesim.Job, _ int) (pcc.Curve, error) {
		if p.GNN == nil {
			return pcc.Curve{}, fmt.Errorf("%w: %s", model.ErrUntrained, model.NameGNN)
		}
		return p.GNN.PredictTarget(job).Curve(), nil
	}))
	m.MustRegister(model.AutoToken(p.AutoToken, p.predictCurvePL))
	return m
}

// predictCurvePL is the XGBoost power-law constructor behind both the
// XGBoost PL predictor and the AutoToken anchor.
func (p *Pipeline) predictCurvePL(job *scopesim.Job, reference int) (pcc.Curve, error) {
	if p.XGB == nil {
		return pcc.Curve{}, fmt.Errorf("%w: %s", model.ErrUntrained, model.NameXGBPL)
	}
	return p.XGB.PredictCurvePL(job, reference)
}

// predictCurveSSFit serves the tabulated XGBoost SS model as a
// parametric curve: the smoothed grid is fitted with a power law.
// Evaluation keeps consuming the native grid (Pipeline.evaluate); this
// form is only for the curve-shaped scoring path.
func (p *Pipeline) predictCurveSSFit(job *scopesim.Job, reference int) (pcc.Curve, error) {
	if p.XGB == nil {
		return pcc.Curve{}, fmt.Errorf("%w: %s", model.ErrUntrained, model.NameXGBSS)
	}
	grid, runtimes, err := p.XGB.PredictCurveSS(job, reference)
	if err != nil {
		return pcc.Curve{}, err
	}
	return model.FitRegion(job, grid, runtimes, func() float64 { return p.XGB.PredictRuntime(job, reference) })
}

// policy returns the pipeline's scoring policy, defaulting to the
// paper's NN → GNN → XGBoost PL preference.
func (p *Pipeline) policy() model.Policy {
	if len(p.ScorePolicy) > 0 {
		return p.ScorePolicy
	}
	return model.DefaultPolicy
}

// ScoreJobModel scores through a specific predictor by name; the empty
// name delegates to the policy chain like ScoreJob. Unknown names fail
// with model.ErrUnknownModel, registered-but-untrained predictors with
// model.ErrUntrained.
func (p *Pipeline) ScoreJobModel(name string, job *scopesim.Job) (pcc.Curve, string, error) {
	if name == "" {
		return p.ScoreJob(job)
	}
	pr, err := p.Predictors().Get(name)
	if err != nil {
		return pcc.Curve{}, "", err
	}
	if !pr.Meta().Trained {
		return pcc.Curve{}, pr.Name(), fmt.Errorf("%w: %s", model.ErrUntrained, pr.Name())
	}
	curve, err := pr.PredictCurve(job)
	return curve, pr.Name(), err
}

// ModelInfos snapshots the registered predictor set (names, kinds, live
// training state) — the payload of the server's /v1/models.
func (p *Pipeline) ModelInfos() []model.Info {
	return p.Predictors().Infos()
}

// TrainedPredictors returns the names of predictors able to answer
// right now, in registration order — recorded in registry manifests so
// operators can see what a published artifact can serve.
func (p *Pipeline) TrainedPredictors() []string {
	var out []string
	for _, pr := range p.Predictors().All() {
		if pr.Meta().Trained {
			out = append(out, pr.Name())
		}
	}
	return out
}

// curvePredictors returns the trained parametric-curve models in table
// order (XGBoost PL, NN, GNN) — the rows of Tables 4–6/8 below the
// special-cased tabulated XGBoost SS row.
func (p *Pipeline) curvePredictors() []*model.Predictor {
	var out []*model.Predictor
	for _, pr := range p.Predictors().All() {
		meta := pr.Meta()
		if meta.Kind == model.KindTrained && !meta.Tabulated && meta.Trained {
			out = append(out, pr)
		}
	}
	return out
}

// RecordPredictor adapts a predictor to the record-based signature the
// evaluation helpers use, anchoring at each record's observed token count
// (the paper's evaluation reference).
func RecordPredictor(pr *model.Predictor) func(*jobrepo.Record) (pcc.Curve, error) {
	return func(rec *jobrepo.Record) (pcc.Curve, error) {
		return pr.PredictCurveAt(rec.Job, rec.ObservedTokens)
	}
}
