package trainer

import (
	"context"
	"fmt"
	"math"

	"tasq/internal/arepas"
	"tasq/internal/features"
	"tasq/internal/jobrepo"
	"tasq/internal/ml/gbt"
	"tasq/internal/ml/linalg"
	"tasq/internal/ml/spline"
	"tasq/internal/model"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// XGBModel is the paper's XGBoost baseline (§4.4): Gamma regression trees
// predicting run time directly from job-level features plus the token
// count, trained on the AREPAS-augmented observation set (observed point,
// 80% and 60% of the observed allocation, and floored 120%/140%-of-peak
// points for over-allocated jobs). Curves are constructed post hoc by the
// smoothing-spline (SS) or power-law (PL) methods.
type XGBModel struct {
	Model  *gbt.Model
	Scaler *features.Scaler
}

// xgbTokenFeature appends the token count (log-scaled like other
// magnitudes) to the job feature vector.
func xgbRow(jobFeat []float64, tokens int) []float64 {
	row := make([]float64, len(jobFeat)+1)
	copy(row, jobFeat)
	row[len(jobFeat)] = math.Log1p(float64(tokens))
	return row
}

// augmented holds one record's share of the XGBoost training matrix.
type augmented struct {
	rows [][]float64
	y    []float64
}

// trainXGB fits the boosted ensemble on the augmented training set. The
// per-record AREPAS augmentation fans out over workers; concatenating the
// per-record blocks in record order keeps the training matrix identical to
// the serial build.
func trainXGB(recs []*jobrepo.Record, scaler *features.Scaler, cfg gbt.Config, workers int) (*XGBModel, error) {
	parts, err := parallel.Map(context.Background(), len(recs), workers, func(i int) (augmented, error) {
		rec := recs[i]
		feat := scaler.TransformRow(features.JobVector(rec.Job))
		pts, err := arepas.AugmentForXGBoost(rec.Skyline, rec.ObservedTokens)
		if err != nil {
			return augmented{}, fmt.Errorf("trainer: augmenting %s: %w", rec.Job.ID, err)
		}
		var a augmented
		for _, p := range pts {
			if p.Runtime < 1 {
				continue
			}
			a.rows = append(a.rows, xgbRow(feat, p.Tokens))
			a.y = append(a.y, float64(p.Runtime))
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	var y []float64
	for _, a := range parts {
		rows = append(rows, a.rows...)
		y = append(y, a.y...)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trainer: no XGBoost training rows")
	}
	x := linalg.FromRows(rows)
	m, err := gbt.Train(x, y, cfg)
	if err != nil {
		return nil, fmt.Errorf("trainer: XGBoost: %w", err)
	}
	return &XGBModel{Model: m, Scaler: scaler}, nil
}

// xgbRowBuf holds one prediction row: the scaled job features and the
// token column. It is an array so the curve constructors keep it on their
// stack.
type xgbRowBuf [features.JobDim + 1]float64

// fillJob writes the job's scaled feature vector into the row; only the
// token column then changes from one grid point to the next.
func (m *XGBModel) fillJob(row *xgbRowBuf, job *scopesim.Job) {
	features.FillJobVector(row[:features.JobDim], job)
	m.Scaler.Apply(row[:features.JobDim])
}

// predictAt sets the row's token column (log-scaled, as xgbRow does) and
// walks the trees.
func (m *XGBModel) predictAt(row *xgbRowBuf, tokens int) float64 {
	row[features.JobDim] = math.Log1p(float64(tokens))
	return m.Model.Predict(row[:])
}

// PredictRuntime returns the predicted run time (seconds) for the job at
// the given token count. Only compile-time job information is used.
func (m *XGBModel) PredictRuntime(job *scopesim.Job, tokens int) float64 {
	var row xgbRowBuf
	m.fillJob(&row, job)
	return m.predictAt(&row, tokens)
}

// PredictCurveSS implements XGBoost SS: point predictions over the ±40%
// region smoothed with a cubic smoothing spline. It returns the grid and
// the smoothed run times (the "curve" is tabulated, not parametric).
func (m *XGBModel) PredictCurveSS(job *scopesim.Job, reference int, lambda float64) (grid []int, runtimes []float64, err error) {
	grid = model.CurveRegion(reference)
	xs := make([]float64, len(grid))
	ys := make([]float64, len(grid))
	var row xgbRowBuf
	m.fillJob(&row, job)
	for i, tok := range grid {
		xs[i] = float64(tok)
		ys[i] = m.predictAt(&row, tok)
	}
	if len(grid) < 3 {
		return grid, ys, nil // too few points to smooth
	}
	sp, err := spline.Fit(xs, ys, lambda)
	if err != nil {
		return nil, nil, fmt.Errorf("trainer: SS smoothing for %s: %w", job.ID, err)
	}
	out := make([]float64, len(grid))
	for i, x := range xs {
		out[i] = sp.At(x)
	}
	return grid, out, nil
}

// PredictCurvePL implements XGBoost PL: point predictions over the region
// fitted with a power law, yielding a parametric PCC (which may be
// increasing — the paper finds ~27% of PL curves have consistent parameter
// signs).
func (m *XGBModel) PredictCurvePL(job *scopesim.Job, reference int) (pcc.Curve, error) {
	grid := model.CurveRegion(reference)
	samples := make([]pcc.Sample, 0, len(grid))
	var row xgbRowBuf
	m.fillJob(&row, job)
	for _, tok := range grid {
		rt := m.predictAt(&row, tok)
		if rt <= 0 {
			continue
		}
		samples = append(samples, pcc.Sample{Tokens: float64(tok), Runtime: rt})
	}
	if len(samples) < 2 {
		// Jobs observed at one or two tokens have a degenerate region;
		// fall back to a flat curve anchored at the point prediction.
		rt := m.predictAt(&row, reference)
		if rt < 1 {
			rt = 1
		}
		return pcc.Curve{A: 0, B: rt}, nil
	}
	curve, err := pcc.Fit(samples)
	if err != nil {
		return pcc.Curve{}, fmt.Errorf("trainer: PL fit for %s: %w", job.ID, err)
	}
	return curve, nil
}
