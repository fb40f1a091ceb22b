// Package sparkadapt demonstrates §2.3 of the TASQ paper — applicability
// to other platforms — by adapting the pipeline to Spark SQL in the style
// of the companion AutoExecutor work (Sen et al., VLDB 2021). The general
// aspects carry over unchanged: a performance characteristic curve, ML
// from compile-time plan features, simulation for data augmentation, and
// regression-driven allocation. The platform-specific pieces differ:
//
//   - the resource unit is the *executor* (a container with several task
//     slots/cores) rather than the token;
//   - the curve family is the scaled Amdahl form R(E) = S + P/E rather
//     than the power law (Spark stages have explicit serial overheads:
//     driver work, scheduling, shuffles);
//   - augmentation converts the job's token skyline into executor terms
//     (one executor = CoresPerExecutor token-slots).
package sparkadapt

import (
	"errors"
	"fmt"
	"math"

	"tasq/internal/arepas"
	"tasq/internal/features"
	"tasq/internal/jobrepo"
	"tasq/internal/ml/gbt"
	"tasq/internal/ml/linalg"
	"tasq/internal/scopesim"
	"tasq/internal/skyline"
)

// Platform describes the Spark deployment. Every method refuses a
// platform whose settings mean nothing.
type Platform struct {
	// CoresPerExecutor is the number of concurrent task slots one
	// executor provides, at least 1.
	CoresPerExecutor int
	// StartupSeconds is the fixed per-run executor fleet startup cost
	// added to every execution, at least 0.
	StartupSeconds int
}

func (p Platform) validate() error {
	if p.CoresPerExecutor < 1 {
		return fmt.Errorf("sparkadapt: cores per executor %d: must be at least 1", p.CoresPerExecutor)
	}
	if p.StartupSeconds < 0 {
		return fmt.Errorf("sparkadapt: startup seconds %d: must be at least 0", p.StartupSeconds)
	}
	return nil
}

// Run executes the job with the given executor count on the shared
// ground-truth engine: E executors provide E·cores task slots.
func (p Platform) Run(ex *scopesim.Executor, job *scopesim.Job, executors int) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if executors < 1 {
		return 0, errors.New("sparkadapt: need at least one executor")
	}
	res, err := ex.Run(job, executors*p.CoresPerExecutor)
	if err != nil {
		return 0, err
	}
	return res.RuntimeSeconds + p.StartupSeconds, nil
}

// ExecutorSkyline converts a token-slot skyline into executor occupancy:
// the number of executors needed at each second (ceil of slots/cores).
func (p Platform) ExecutorSkyline(s skyline.Skyline) (skyline.Skyline, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	out := make(skyline.Skyline, len(s))
	for i, v := range s {
		out[i] = int32((int(v) + p.CoresPerExecutor - 1) / p.CoresPerExecutor)
	}
	return out, nil
}

// Curve is the scaled Amdahl performance characteristic curve for Spark:
// R(E) = S + P/E with serial seconds S and parallelizable work P.
type Curve struct {
	S, P float64
}

// Runtime evaluates the curve.
func (c Curve) Runtime(executors float64) float64 { return c.S + c.P/executors }

// NonIncreasing reports whether more executors never slow the query (the
// fit guarantees it when P ≥ 0).
func (c Curve) NonIncreasing() bool { return c.P >= 0 }

// Valid reports whether the curve is usable.
func (c Curve) Valid() bool {
	return !math.IsNaN(c.S) && !math.IsNaN(c.P) && !math.IsInf(c.S, 0) && !math.IsInf(c.P, 0)
}

// String renders the curve.
func (c Curve) String() string { return fmt.Sprintf("Runtime = %.4g + %.4g/E", c.S, c.P) }

// Sample is one (executors, runtime) observation.
type Sample struct {
	Executors float64
	Runtime   float64
}

// FitCurve estimates (S, P) by least squares on the design (1, 1/E).
// A negative parallel estimate is clamped to zero (flat curve), keeping
// the monotone guarantee the paper's constrained models provide for SCOPE.
func FitCurve(samples []Sample) (Curve, error) {
	if len(samples) < 2 {
		return Curve{}, errors.New("sparkadapt: need at least two samples to fit")
	}
	x := linalg.New(len(samples), 2)
	y := linalg.New(len(samples), 1)
	distinct := false
	for i, s := range samples {
		if s.Executors < 1 || s.Runtime <= 0 {
			return Curve{}, fmt.Errorf("sparkadapt: bad sample (E=%v, R=%v)", s.Executors, s.Runtime)
		}
		if s.Executors != samples[0].Executors {
			distinct = true
		}
		x.Set(i, 0, 1)
		x.Set(i, 1, 1/s.Executors)
		y.Set(i, 0, s.Runtime)
	}
	if !distinct {
		return Curve{}, errors.New("sparkadapt: need at least two distinct executor counts")
	}
	beta, err := linalg.LeastSquares(x, y)
	if err != nil {
		return Curve{}, err
	}
	c := Curve{S: beta.At(0, 0), P: beta.At(1, 0)}
	if c.P < 0 {
		// Anomalous fit: treat the query as not benefiting from scale-out.
		c = Curve{S: meanRuntime(samples), P: 0}
	}
	if c.S < 0 {
		c.S = 0
	}
	return c, nil
}

func meanRuntime(samples []Sample) float64 {
	var s float64
	for _, v := range samples {
		s += v.Runtime
	}
	return s / float64(len(samples))
}

// OptimalExecutors is the §2.1 rule on the Amdahl curve: the smallest
// executor count whose marginal relative gain per extra executor falls
// below threshold. The gain |R′(E)|/R(E) = P / (E²·S + E·P) is decreasing
// in E, so a linear scan from min terminates at the first satisfying
// count.
func (c Curve) OptimalExecutors(min, max int, threshold float64) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if !c.NonIncreasing() || threshold <= 0 || c.P == 0 {
		return min
	}
	for e := min; e <= max; e++ {
		fe := float64(e)
		gain := c.P / (fe*fe*c.S + fe*c.P)
		if gain < threshold {
			return e
		}
	}
	return max
}

// SweepExecutors augments training data for the Spark adaptation the same
// way TASQ does for SCOPE: AREPAS simulates the observed token skyline at
// each candidate executor count's slot capacity.
func (p Platform) SweepExecutors(sky skyline.Skyline, executorCounts []int) ([]Sample, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	out := make([]Sample, 0, len(executorCounts))
	for _, e := range executorCounts {
		if e < 1 {
			return nil, fmt.Errorf("sparkadapt: executor count %d", e)
		}
		rt, err := arepas.SimulateRuntime(sky, e*p.CoresPerExecutor)
		if err != nil {
			return nil, err
		}
		if rt < 1 {
			rt = 1
		}
		out = append(out, Sample{Executors: float64(e), Runtime: float64(rt + p.StartupSeconds)})
	}
	return out, nil
}

// Model predicts query run time from compile-time plan features plus the
// executor count, and constructs per-query Amdahl curves from point
// predictions — the AutoExecutor recipe.
type Model struct {
	Platform Platform
	GBT      *gbt.Model
	Scaler   *features.Scaler
}

// executorGrid lists the executor counts training augments every job at.
var executorGrid = []int{1, 2, 4, 8, 16, 32}

// Train fits the Spark adaptation on historical records (the same
// repository format as the SCOPE pipeline; the adapter reinterprets the
// telemetry in executor units): gbt.DefaultConfig's trees under the Gamma
// objective, over every job swept at executorGrid.
func Train(recs []*jobrepo.Record, platform Platform) (*Model, error) {
	if err := platform.validate(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("sparkadapt: empty training set")
	}

	scaler := features.FitJobScaler(jobrepo.Jobs(recs))
	var rows [][]float64
	var y []float64
	for _, rec := range recs {
		feat := features.JobVector(rec.Job)
		scaler.Apply(feat)
		samples, err := platform.SweepExecutors(rec.Skyline, executorGrid)
		if err != nil {
			return nil, fmt.Errorf("sparkadapt: augmenting %s: %w", rec.Job.ID, err)
		}
		for _, s := range samples {
			row := make([]float64, len(feat)+1)
			copy(row, feat)
			row[len(feat)] = math.Log1p(s.Executors)
			rows = append(rows, row)
			y = append(y, s.Runtime)
		}
	}
	cfg := gbt.DefaultConfig()
	cfg.Objective = gbt.Gamma
	m, err := gbt.Train(linalg.FromRows(rows), y, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{Platform: platform, GBT: m, Scaler: scaler}, nil
}

// PredictRuntime returns the predicted run time at the given executor
// count from compile-time information only.
func (m *Model) PredictRuntime(job *scopesim.Job, executors int) float64 {
	feat := features.JobVector(job)
	m.Scaler.Apply(feat)
	row := make([]float64, len(feat)+1)
	copy(row, feat)
	row[len(feat)] = math.Log1p(float64(executors))
	return m.GBT.Predict(row)
}

// PredictCurve fits the Amdahl curve to point predictions over an
// executor grid around the reference count.
func (m *Model) PredictCurve(job *scopesim.Job, maxExecutors int) (Curve, error) {
	if maxExecutors < 2 {
		maxExecutors = 2
	}
	var samples []Sample
	for e := 1; e <= maxExecutors; e *= 2 {
		rt := m.PredictRuntime(job, e)
		if rt <= 0 {
			continue
		}
		samples = append(samples, Sample{Executors: float64(e), Runtime: rt})
	}
	if len(samples) < 2 {
		return Curve{S: math.Max(m.PredictRuntime(job, maxExecutors), 1), P: 0}, nil
	}
	return FitCurve(samples)
}
