// Package model defines the predictor seam of the scoring path (Figure 4):
// one Predictor type that every PCC source — the trained TASQ models
// (XGBoost SS/PL, NN, GNN) and the AutoToken baseline of §6.2 — plugs
// into, a Mux that registers predictors by name, and a Policy expressing
// an ordered fallback chain.
//
// Every served predictor reads only what is known at compile time. The
// §6.3 stage simulators (Jockey, Amdahl) are not served: they replay a
// job's stage task times, which for a request's own job are the work the
// executor runs, so the experiments call internal/jockey on a previous
// run instead.
//
// The package sits below the trainer: it depends only on the job
// description, the PCC math and AutoToken's group model, so the trainer,
// server, registry and experiment layers can all consume predictors
// without import cycles. The trainer wraps its fitted models with New and
// FitRegion; AutoToken is adapted here directly.
package model

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// Canonical predictor names. The four trained models keep the paper's
// table spelling (Tables 4–6); the baseline uses its name from §6.2.
const (
	NameXGBSS     = "XGBoost SS"
	NameXGBPL     = "XGBoost PL"
	NameNN        = "NN"
	NameGNN       = "GNN"
	NameAutoToken = "AutoToken"
)

// Sentinel errors of the routing contract. Servers map these to HTTP
// statuses: an unknown name is the caller's mistake (400), a known but
// untrained or non-applicable predictor is a state conflict (409).
var (
	// ErrUnknownModel marks a name no predictor is registered under.
	ErrUnknownModel = errors.New("model: unknown model")
	// ErrUntrained marks a registered predictor whose underlying model
	// has not been trained (e.g. the GNN under SkipGNN, or AutoToken
	// before any recurring jobs were ingested).
	ErrUntrained = errors.New("model: predictor not trained")
	// ErrUncovered marks a job outside a predictor's coverage — the
	// AutoToken coverage gap of §6.2 (ad-hoc or unseen signatures).
	ErrUncovered = errors.New("model: job not covered by predictor")
)

// Kind classifies where a predictor's knowledge comes from.
type Kind string

const (
	// KindTrained marks models fitted on the historical training set;
	// only these enter the Tables 4–6/8 evaluation.
	KindTrained Kind = "trained"
	// KindBaseline marks the prior-art AutoToken predictor (§6.2),
	// served for comparison but excluded from the paper-table
	// evaluation.
	KindBaseline Kind = "baseline"
)

// Meta describes a predictor's training provenance.
type Meta struct {
	// Kind separates fitted models from prior-art baselines.
	Kind Kind
	// Trained reports whether the predictor can answer right now. It is
	// evaluated live: a pipeline loaded with SkipGNN reports the GNN
	// predictor as registered but untrained.
	Trained bool
	// Tabulated marks predictors whose native output is a smoothed grid
	// rather than a parametric curve (XGBoost SS). Their PredictCurve
	// fits a power law to the grid; evaluation keeps using the native
	// tabulated form.
	Tabulated bool
	// Provenance is a one-line human summary of what the predictor was
	// fitted on or simulates.
	Provenance string
}

// Predictor maps compile-time job information to a performance
// characteristic curve built around a reference allocation: the XGBoost
// ±40% region is laid out around it, while NN, GNN and AutoToken ignore
// it. A Predictor is safe for concurrent use: the serving path scores
// through one shared set.
type Predictor struct {
	name string
	meta func() Meta
	at   func(job *scopesim.Job, reference int) (pcc.Curve, error)
}

// New returns the predictor registered as name whose curve for a job
// around a reference allocation is at(job, reference). meta is called on
// every Meta, so training state is always read live.
func New(name string, meta func() Meta, at func(job *scopesim.Job, reference int) (pcc.Curve, error)) *Predictor {
	return &Predictor{name: name, meta: meta, at: at}
}

// Name returns the canonical registration name.
func (p *Predictor) Name() string { return p.name }

// Meta describes the predictor's provenance and live training state.
func (p *Predictor) Meta() Meta { return p.meta() }

// PredictCurve returns the job's PCC around its requested tokens, floored
// at 1 — the scoring-path semantics of Figure 4.
func (p *Predictor) PredictCurve(job *scopesim.Job) (pcc.Curve, error) {
	return p.at(job, max(job.RequestedTokens, 1))
}

// PredictCurveAt returns the job's PCC around reference; evaluation
// anchors at each record's observed tokens.
func (p *Predictor) PredictCurveAt(job *scopesim.Job, reference int) (pcc.Curve, error) {
	return p.at(job, reference)
}

// CurveRegion returns the paper's ±40%-of-reference token grid on which
// XGBoost curves are constructed and the Pattern metric is judged.
func CurveRegion(reference int) []int {
	// Nine steps of 0.1; tok never decreases along them (every point of a
	// negative reference floors to 1), so comparing with the previous
	// point dedupes exactly.
	out := make([]int, 0, 9)
	for f := 0.6; f <= 1.401; f += 0.1 {
		tok := int(math.Round(f * float64(reference)))
		if tok < 1 {
			tok = 1
		}
		if len(out) == 0 || tok != out[len(out)-1] {
			out = append(out, tok)
		}
	}
	return out
}

// FitRegion fits a power law to the run times predicted over a
// CurveRegion grid, skipping points whose run time is not positive. A
// region with fewer than two usable points (a job observed at one or two
// tokens) is degenerate: the curve is then flat at flat(), floored at 1,
// and flat is called only in that case.
func FitRegion(job *scopesim.Job, grid []int, runtimes []float64, flat func() float64) (pcc.Curve, error) {
	samples := make([]pcc.Sample, 0, len(grid))
	for i, tok := range grid {
		if runtimes[i] <= 0 {
			continue
		}
		samples = append(samples, pcc.Sample{Tokens: float64(tok), Runtime: runtimes[i]})
	}
	if len(samples) < 2 {
		return pcc.Curve{A: 0, B: max(flat(), 1)}, nil
	}
	curve, err := pcc.Fit(samples)
	if err != nil {
		return pcc.Curve{}, fmt.Errorf("model: fitting the region curve for %s: %w", job.ID, err)
	}
	return curve, nil
}

// normalize canonicalizes a model name for lookup: case-insensitive,
// ignoring spaces, dashes and underscores, so "xgboost-pl", "XGBoost PL"
// and "xgboost_pl" all resolve to the same predictor.
func normalize(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch r {
		case ' ', '-', '_':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unknownErr builds the ErrUnknownModel error with the known names.
func unknownErr(name string, known []string) error {
	return fmt.Errorf("%w %q (known: %s)", ErrUnknownModel, name, strings.Join(known, ", "))
}
