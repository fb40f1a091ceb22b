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

// augmented holds one record's share of the XGBoost training matrix: its
// scaled job features and the AREPAS points with a usable run time.
type augmented struct {
	feat []float64
	pts  []arepas.AugmentationPoint
}

// TrainXGB fits the boosted ensemble on the augmented training set, with
// job features scaled by scaler. Train always uses the Gamma objective;
// TrainXGB takes any, so an ablation can compare objectives on the same
// rows. The per-record AREPAS augmentation fans out over workers;
// concatenating the per-record blocks in record order keeps the training
// matrix identical to the serial build.
func TrainXGB(recs []*jobrepo.Record, scaler *features.Scaler, cfg gbt.Config, workers int) (*XGBModel, error) {
	parts, err := parallel.Map(context.Background(), len(recs), workers, func(i int) (augmented, error) {
		rec := recs[i]
		pts, err := arepas.AugmentForXGBoost(rec.Skyline, rec.ObservedTokens)
		if err != nil {
			return augmented{}, fmt.Errorf("trainer: augmenting %s: %w", rec.Job.ID, err)
		}
		a := augmented{feat: features.JobVector(rec.Job), pts: pts[:0]}
		scaler.Apply(a.feat)
		for _, p := range pts {
			if p.Runtime >= 1 {
				a.pts = append(a.pts, p)
			}
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	var n int
	for _, a := range parts {
		n += len(a.pts)
	}
	if n == 0 {
		return nil, fmt.Errorf("trainer: no XGBoost training rows")
	}
	// One row per kept point: the record's features, then the token count
	// log-scaled as predictAt sets it.
	x := linalg.New(n, features.JobDim+1)
	y := make([]float64, 0, n)
	for _, a := range parts {
		for _, p := range a.pts {
			row := x.Row(len(y))
			copy(row, a.feat)
			row[features.JobDim] = math.Log1p(float64(p.Tokens))
			y = append(y, float64(p.Runtime))
		}
	}
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

// splineLambda is the smoothing parameter of every XGBoost SS curve.
const splineLambda = 50

// PredictCurveSS implements XGBoost SS: point predictions over the ±40%
// region smoothed with a cubic smoothing spline. It returns the grid and
// the smoothed run times (the "curve" is tabulated, not parametric).
func (m *XGBModel) PredictCurveSS(job *scopesim.Job, reference int) (grid []int, runtimes []float64, err error) {
	grid = model.CurveRegion(reference)
	var xbuf, ybuf [9]float64
	xs, ys := xbuf[:len(grid)], ybuf[:len(grid)]
	var row xgbRowBuf
	m.fillJob(&row, job)
	for i, tok := range grid {
		xs[i] = float64(tok)
		ys[i] = m.predictAt(&row, tok)
	}
	out := make([]float64, len(grid))
	if len(grid) < 3 {
		copy(out, ys) // too few points to smooth
		return grid, out, nil
	}
	sp, err := spline.Fit(xs, ys, splineLambda)
	if err != nil {
		return nil, nil, fmt.Errorf("trainer: SS smoothing for %s: %w", job.ID, err)
	}
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
	var buf [9]float64
	runtimes := buf[:len(grid)]
	var row xgbRowBuf
	m.fillJob(&row, job)
	for i, tok := range grid {
		runtimes[i] = m.predictAt(&row, tok)
	}
	return model.FitRegion(job, grid, runtimes, func() float64 { return m.predictAt(&row, reference) })
}
