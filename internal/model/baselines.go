package model

import (
	"fmt"

	"tasq/internal/autotoken"
	"tasq/internal/jockey"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// simCurve fits a power law to a stage-level simulator evaluated over
// the ±40% region around the reference — the same construction XGBoost
// PL uses over its point predictions, so the baselines produce
// parametric PCCs comparable with every other predictor. Degenerate
// regions (reference 1–2 tokens) fall back to a flat curve at the point
// prediction.
func simCurve(sim func(*scopesim.Job, int) (int, error), job *scopesim.Job, reference int) (pcc.Curve, error) {
	if reference < 1 {
		reference = 1
	}
	grid := CurveRegion(reference)
	var buf [9]float64
	runtimes := buf[:len(grid)]
	for i, tok := range grid {
		rt, err := sim(job, tok)
		if err != nil {
			return pcc.Curve{}, err
		}
		runtimes[i] = float64(rt)
	}
	return FitRegion(job, grid, runtimes, func() float64 {
		// The reference is on the grid, so its simulation already ran
		// without error.
		rt, _ := sim(job, reference)
		return float64(rt)
	})
}

// Jockey returns the wave-based stage-simulator baseline (§6.3) as a
// servable predictor. It needs no training: the job's stage plan is the
// model.
func Jockey() *Predictor {
	return New(NameJockey, FixedMeta(Meta{
		Kind:       KindBaseline,
		Trained:    true,
		Provenance: "wave-based stage simulator (Ferguson et al., EuroSys 2012); power law fitted over the ±40% region",
	}), func(job *scopesim.Job, reference int) (pcc.Curve, error) {
		return simCurve(jockey.SimulateJockey, job, reference)
	})
}

// Amdahl returns the serial/parallel-split simulator baseline (§6.3) as
// a servable predictor.
func Amdahl() *Predictor {
	return New(NameAmdahl, FixedMeta(Meta{
		Kind:       KindBaseline,
		Trained:    true,
		Provenance: "Amdahl's-law stage simulator T(N) = Σ(S + P/N); power law fitted over the ±40% region",
	}), func(job *scopesim.Job, reference int) (pcc.Curve, error) {
		return simCurve(jockey.SimulateAmdahl, job, reference)
	})
}

// AutoToken adapts the peak-only AutoToken baseline (Sen et al., VLDB
// 2020; §6.2) into a curve predictor: the per-signature group model
// supplies the peak allocation and anchor constructs a PCC around that
// peak (the trainer passes its XGBoost power-law constructor). Jobs
// outside AutoToken's coverage — ad-hoc or unseen signatures, the gap
// §6.2 highlights — fail with ErrUncovered. A nil autotoken model (no
// recurring jobs in the training set) registers as untrained.
func AutoToken(m *autotoken.Model, anchor func(job *scopesim.Job, reference int) (pcc.Curve, error)) *Predictor {
	return New(NameAutoToken, func() Meta {
		return Meta{
			Kind:       KindBaseline,
			Trained:    m != nil,
			Provenance: "per-signature peak regression (Sen et al., VLDB 2020); curve anchored at the predicted peak",
		}
	}, func(job *scopesim.Job, _ int) (pcc.Curve, error) {
		if m == nil {
			return pcc.Curve{}, fmt.Errorf("%w: %s", ErrUntrained, NameAutoToken)
		}
		peak, ok := m.PredictPeak(job)
		if !ok {
			return pcc.Curve{}, fmt.Errorf("%w: %s has no group for job %s", ErrUncovered, NameAutoToken, job.ID)
		}
		return anchor(job, peak)
	})
}
