// Package trainer implements TASQ's end-to-end model pipeline (§2.2, §4):
// training-data augmentation with AREPAS, PCC target construction,
// featurization and scaling, the three predictors (XGBoost with smoothing
// spline or power-law curve construction, a feed-forward NN and a GNN with
// the constrained losses LF1/LF2/LF3), and the evaluation metrics of
// Tables 4–6 and 8.
package trainer

import (
	"fmt"
	"math"

	"tasq/internal/arepas"
	"tasq/internal/jobrepo"
	"tasq/internal/pcc"
	"tasq/internal/stats"
)

// Target is the per-job PCC parameter pair the constrained models learn,
// derived by fitting a power law to an AREPAS sweep of the job's observed
// skyline (§3, §4.4).
type Target struct {
	// A and LogB are the raw power-law parameters (A ≤ 0 for
	// non-increasing curves).
	A, LogB float64
}

// BuildTarget runs the AREPAS sweep over fractions of the observed token
// count and fits the log–log power law.
func BuildTarget(rec *jobrepo.Record, fractions []float64) (Target, error) {
	grid := arepas.FractionGrid(rec.ObservedTokens, fractions)
	if len(grid) < 2 {
		// Jobs observed at a single token (reference 1) have no sweep;
		// fall back to a flat curve anchored at the observed run time.
		return Target{A: 0, LogB: math.Log(float64(max(rec.RuntimeSeconds, 1)))}, nil
	}
	pts, err := arepas.Sweep(rec.Skyline, grid)
	if err != nil {
		return Target{}, fmt.Errorf("trainer: target sweep for %s: %w", rec.Job.ID, err)
	}
	tokens := make([]int, len(pts))
	runtimes := make([]int, len(pts))
	for i, p := range pts {
		tokens[i] = p.Tokens
		runtimes[i] = p.Runtime
	}
	curve, err := pcc.FitIntPoints(tokens, runtimes)
	if err != nil {
		return Target{}, fmt.Errorf("trainer: target fit for %s: %w", rec.Job.ID, err)
	}
	return Target{A: curve.A, LogB: math.Log(curve.B)}, nil
}

// ParamScaling standardizes the two curve parameters so neither dominates
// the loss (§4.5: "the parameters are scaled so that neither of the two
// would dominate the loss function").
type ParamScaling struct {
	A, LogB stats.Standardizer
}

// FitParamScaling computes the scaling over training targets.
func FitParamScaling(targets []Target) ParamScaling {
	as := make([]float64, len(targets))
	bs := make([]float64, len(targets))
	for i, t := range targets {
		as[i] = t.A
		bs[i] = t.LogB
	}
	return ParamScaling{A: stats.FitStandardizer(as), LogB: stats.FitStandardizer(bs)}
}

// Scale maps a target into standardized space.
func (s ParamScaling) Scale(t Target) (za, zb float64) {
	return s.A.Transform(t.A), s.LogB.Transform(t.LogB)
}

// Unscale maps standardized parameters back.
func (s ParamScaling) Unscale(za, zb float64) Target {
	return Target{A: s.A.Inverse(za), LogB: s.LogB.Inverse(zb)}
}

// Curve converts a raw target into the PCC curve it parameterizes.
func (t Target) Curve() pcc.Curve {
	return pcc.Curve{A: t.A, B: math.Exp(t.LogB)}
}

// ParamMAE returns the mean absolute error between predicted and true
// parameters in scaled space, averaged over the two parameters — the "MAE
// (Curve Params)" metric of Tables 4–6.
func ParamMAE(s ParamScaling, preds, truths []Target) float64 {
	if len(preds) != len(truths) || len(preds) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range preds {
		pa, pb := s.Scale(preds[i])
		ta, tb := s.Scale(truths[i])
		sum += (math.Abs(pa-ta) + math.Abs(pb-tb)) / 2
	}
	return sum / float64(len(preds))
}
