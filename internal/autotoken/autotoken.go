// Package autotoken implements the AutoToken baseline (Sen et al., VLDB
// 2020), the paper's own prior system discussed in §6.2: it groups
// recurring SCOPE jobs by signature and trains an individual model per
// group to predict the group's *peak* token requirement from input-size
// features. Its two limitations motivate TASQ:
//
//   - no coverage for ad-hoc jobs — a new signature has no model (the
//     paper notes 40–60% of SCOPE jobs are new), and
//   - peak-only prediction — it cannot answer what-if questions about
//     sub-peak allocations, because it does not model run time at all.
//
// Each group model is a log–log linear regression of peak tokens on the
// job's leaf input cardinality (AutoToken's "relationships between data
// size … and a group's peak allocation"), with a historical-max fallback
// for groups too small or too degenerate to regress.
package autotoken

import (
	"errors"
	"fmt"
	"math"

	"tasq/internal/jobrepo"
	"tasq/internal/ml/linalg"
	"tasq/internal/scopesim"
)

// Model predicts peak tokens for jobs whose signature was seen in training.
type Model struct {
	groups map[string]*groupModel
	// Safety is the multiplicative headroom applied to predictions so the
	// guaranteed allocation covers the peak (AutoToken optimizes for not
	// throttling the job).
	Safety float64
}

// groupModel is one recurring-job group's predictor.
type groupModel struct {
	// hasFit marks a usable regression log(peak) = b0 + b1·log(input).
	hasFit   bool
	b0, b1   float64
	maxPeak  int // historical fallback
	nSamples int
}

// Config controls training. DefaultConfig states every default; Train
// refuses a value that means nothing.
type Config struct {
	// Safety is the positive headroom multiplier; AutoToken-style systems
	// over-provision slightly to avoid throttling.
	Safety float64
}

// DefaultConfig returns 10% headroom.
func DefaultConfig() Config { return Config{Safety: 1.1} }

// minGroupSize is the minimum instances before a group's regression is
// fitted; below it the group falls back to its historical max.
const minGroupSize = 3

// sample is one training observation within a group.
type sample struct{ logInput, logPeak float64 }

// Train fits per-group models over historical records. Ad-hoc jobs (empty
// template signature) are skipped: AutoToken has nothing to group them by.
func Train(recs []*jobrepo.Record, cfg Config) (*Model, error) {
	if !(cfg.Safety > 0) || math.IsInf(cfg.Safety, 1) {
		return nil, fmt.Errorf("autotoken: safety %v: must be positive and finite", cfg.Safety)
	}
	if len(recs) == 0 {
		return nil, errors.New("autotoken: empty training set")
	}
	groups := make(map[string][]sample)
	maxPeaks := make(map[string]int)
	for _, rec := range recs {
		sig := rec.Job.Template
		if sig == "" {
			continue
		}
		peak := rec.Skyline.Peak()
		if peak < 1 {
			continue
		}
		in := inputSize(rec.Job)
		groups[sig] = append(groups[sig], sample{logInput: math.Log1p(in), logPeak: math.Log(float64(peak))})
		if peak > maxPeaks[sig] {
			maxPeaks[sig] = peak
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("autotoken: no recurring jobs in the training set")
	}
	m := &Model{groups: make(map[string]*groupModel, len(groups)), Safety: cfg.Safety}
	for sig, samples := range groups {
		gm := &groupModel{maxPeak: maxPeaks[sig], nSamples: len(samples)}
		if len(samples) >= minGroupSize && spread(samples) {
			x := linalg.New(len(samples), 2)
			y := linalg.New(len(samples), 1)
			for i, s := range samples {
				x.Set(i, 0, 1)
				x.Set(i, 1, s.logInput)
				y.Set(i, 0, s.logPeak)
			}
			if beta, err := linalg.LeastSquares(x, y); err == nil {
				gm.hasFit = true
				gm.b0 = beta.At(0, 0)
				gm.b1 = beta.At(1, 0)
			}
		}
		m.groups[sig] = gm
	}
	return m, nil
}

// spread reports whether the group's inputs vary enough to regress on.
func spread(samples []sample) bool {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		lo = math.Min(lo, s.logInput)
		hi = math.Max(hi, s.logInput)
	}
	return hi-lo > 1e-6
}

// inputSize extracts the job's leaf input cardinality estimate — the data
// size AutoToken keys its per-group model on.
func inputSize(job *scopesim.Job) float64 {
	var in float64
	for i := range job.Operators {
		if c := job.Operators[i].Est.LeafInputCardinality; c > in {
			in = c
		}
	}
	return in
}

// Covered reports whether the job's signature has a trained group.
func (m *Model) Covered(job *scopesim.Job) bool {
	if job.Template == "" {
		return false
	}
	_, ok := m.groups[job.Template]
	return ok
}

// Groups returns the number of trained groups.
func (m *Model) Groups() int { return len(m.groups) }

// PredictPeak returns the predicted peak-token allocation for the job,
// with ok=false for uncovered (ad-hoc or unseen-signature) jobs — the
// coverage gap §6.2 highlights.
func (m *Model) PredictPeak(job *scopesim.Job) (int, bool) {
	gm, ok := m.groups[job.Template]
	if job.Template == "" || !ok {
		return 0, false
	}
	var peak float64
	if gm.hasFit {
		peak = math.Exp(gm.b0 + gm.b1*math.Log1p(inputSize(job)))
	} else {
		peak = float64(gm.maxPeak)
	}
	peak *= m.Safety
	tokens := int(math.Ceil(peak))
	if tokens < 1 {
		tokens = 1
	}
	return tokens, true
}
