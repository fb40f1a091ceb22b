package model

import (
	"fmt"

	"tasq/internal/autotoken"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

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
