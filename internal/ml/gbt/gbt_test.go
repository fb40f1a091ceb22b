package gbt

import (
	"math"
	"math/rand"
	"testing"

	"tasq/internal/ml/linalg"
	"tasq/internal/stats"
)

// config is DefaultConfig with the given rounds, depth and seed.
func config(trees, depth int, seed int64) Config {
	c := DefaultConfig()
	c.NumTrees, c.MaxDepth, c.Seed = trees, depth, seed
	return c
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(linalg.New(0, 0), nil, DefaultConfig()); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := Train(linalg.New(3, 2), []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("target length mismatch accepted")
	}
	gamma := DefaultConfig()
	gamma.Objective = Gamma
	if _, err := Train(linalg.New(2, 1), []float64{1, -1}, gamma); err == nil {
		t.Fatal("gamma with non-positive target accepted")
	}
}

func TestObjectiveString(t *testing.T) {
	if Squared.String() != "squared" || Gamma.String() != "gamma" {
		t.Fatal("objective names wrong")
	}
}

func TestConstantTarget(t *testing.T) {
	x := linalg.New(20, 3)
	y := make([]float64, 20)
	for i := range y {
		y[i] = 7
	}
	m, err := Train(x, y, config(5, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if math.Abs(m.Predict(x.Row(i))-7) > 1e-6 {
			t.Fatalf("constant target predicted as %v", m.Predict(x.Row(i)))
		}
	}
}

func TestLearnsStepFunction(t *testing.T) {
	// y = 10 if x₀ > 0.5 else 2 — a single split solves it.
	rng := rand.New(rand.NewSource(1))
	n := 400
	x := linalg.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		if x.At(i, 0) > 0.5 {
			y[i] = 10
		} else {
			y[i] = 2
		}
	}
	m, err := Train(x, y, config(50, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictBatch(x)
	if mae := stats.MAE(pred, y); mae > 0.2 {
		t.Fatalf("step function MAE %v", mae)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1000
	x := linalg.New(n, 3)
	y := make([]float64, n)
	fn := func(r []float64) float64 { return 3*r[0]*r[0] + 2*math.Sin(3*r[1]) + r[2] }
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2-1)
		}
		y[i] = fn(x.Row(i))
	}
	m, err := Train(x, y, config(200, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-sample check.
	var errSum float64
	for i := 0; i < 200; i++ {
		r := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		errSum += math.Abs(m.Predict(r) - fn(r))
	}
	if mae := errSum / 200; mae > 0.5 {
		t.Fatalf("nonlinear OOS MAE %v", mae)
	}
}

func TestGammaObjectivePositivePredictions(t *testing.T) {
	// Right-skewed positive targets: predictions must stay positive
	// everywhere under the log link.
	rng := rand.New(rand.NewSource(5))
	n := 500
	x := linalg.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = math.Exp(rng.NormFloat64()*0.3) * (10 + 200*x.At(i, 0))
	}
	cfg := config(100, 4, 6)
	cfg.Objective = Gamma
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r := []float64{rng.Float64(), rng.Float64()}
		if m.Predict(r) <= 0 {
			t.Fatalf("gamma prediction %v not positive", m.Predict(r))
		}
	}
	pred := m.PredictBatch(x)
	if mape := stats.MedianAPE(pred, y); mape > 0.25 {
		t.Fatalf("gamma MedianAPE %v", mape)
	}
}

func TestGammaBeatsSquaredOnRelativeErrorForSkewedData(t *testing.T) {
	// With multiplicative noise and scale spanning decades, the log-link
	// gamma objective should achieve no worse median relative error.
	rng := rand.New(rand.NewSource(7))
	n := 800
	x := linalg.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 4
		x.Set(i, 0, v)
		y[i] = math.Exp(v+1) * math.Exp(rng.NormFloat64()*0.2)
	}
	cfg := config(150, 3, 8)
	sq, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Objective = Gamma
	gm, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sqErr := stats.MedianAPE(sq.PredictBatch(x), y)
	gmErr := stats.MedianAPE(gm.PredictBatch(x), y)
	if gmErr > sqErr*1.5 {
		t.Fatalf("gamma MedianAPE %v much worse than squared %v", gmErr, sqErr)
	}
}

func TestSubsamplingAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	x := linalg.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = x.At(i, 0)*5 + x.At(i, 1)
	}
	cfg := config(30, 6, 10)
	cfg.Subsample = 0.7
	a, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r := []float64{rng.Float64(), rng.Float64()}
		if a.Predict(r) != b.Predict(r) {
			t.Fatal("same seed must give identical models")
		}
	}
	if a.NumTrees() != 30 {
		t.Fatalf("tree count %d", a.NumTrees())
	}
}

func TestMonotoneFeatureDirection(t *testing.T) {
	// Trained on strictly increasing data, predictions should follow the
	// trend across the feature range (smoke test for threshold handling).
	n := 200
	x := linalg.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		y[i] = float64(i) * 2
	}
	m, err := Train(x, y, config(80, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	lo := m.Predict([]float64{10})
	hi := m.Predict([]float64{190})
	if hi <= lo {
		t.Fatalf("predictions not increasing: f(10)=%v f(190)=%v", lo, hi)
	}
}

func TestDuplicateFeatureValues(t *testing.T) {
	// A feature with only two distinct values must still split cleanly.
	n := 100
	x := linalg.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, 1)
			y[i] = 5
		} else {
			x.Set(i, 0, 2)
			y[i] = 50
		}
	}
	m, err := Train(x, y, config(30, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{1})-5) > 1 || math.Abs(m.Predict([]float64{2})-50) > 2 {
		t.Fatalf("two-value split wrong: f(1)=%v f(2)=%v", m.Predict([]float64{1}), m.Predict([]float64{2}))
	}
}
