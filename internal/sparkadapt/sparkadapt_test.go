package sparkadapt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/skyline"
	"tasq/internal/stats"
	"tasq/internal/workload"
)

func ingest(t *testing.T, n int, seed int64) []*jobrepo.Record {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(n), &ex); err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

func TestPlatformRun(t *testing.T) {
	recs := ingest(t, 5, 1)
	var ex scopesim.Executor
	p := Platform{CoresPerExecutor: 4, StartupSeconds: 10}
	job := recs[0].Job
	rt, err := p.Run(&ex, job, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent slot count on the raw engine plus startup.
	raw, err := ex.Run(job, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rt != raw.RuntimeSeconds+10 {
		t.Fatalf("platform run %d, want %d", rt, raw.RuntimeSeconds+10)
	}
	if _, err := p.Run(&ex, job, 0); err == nil {
		t.Fatal("zero executors accepted")
	}
}

func TestExecutorSkyline(t *testing.T) {
	p := Platform{CoresPerExecutor: 4}
	s := skyline.Skyline{0, 1, 4, 5, 9}
	got, err := p.ExecutorSkyline(s)
	if err != nil {
		t.Fatal(err)
	}
	want := skyline.Skyline{0, 1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executor skyline %v, want %v", got, want)
		}
	}
}

func TestFitCurveRecoversAmdahl(t *testing.T) {
	truth := Curve{S: 42, P: 1200}
	var samples []Sample
	for e := 1.0; e <= 64; e *= 2 {
		samples = append(samples, Sample{Executors: e, Runtime: truth.Runtime(e)})
	}
	got, err := FitCurve(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.S-truth.S) > 1e-3 || math.Abs(got.P-truth.P) > 1e-3 {
		t.Fatalf("fit %+v, want %+v", got, truth)
	}
	if !got.NonIncreasing() || !got.Valid() {
		t.Fatalf("fit flags wrong: %+v", got)
	}
}

func TestFitCurveErrors(t *testing.T) {
	if _, err := FitCurve(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitCurve([]Sample{{1, 10}, {1, 12}}); err == nil {
		t.Fatal("identical executor counts accepted")
	}
	if _, err := FitCurve([]Sample{{0, 10}, {2, 5}}); err == nil {
		t.Fatal("zero executors accepted")
	}
	if _, err := FitCurve([]Sample{{1, 0}, {2, 5}}); err == nil {
		t.Fatal("zero runtime accepted")
	}
}

func TestFitCurveClampsAnomalies(t *testing.T) {
	// Increasing run times with more executors (anomalous) must clamp to
	// a flat non-increasing curve rather than produce P < 0.
	got, err := FitCurve([]Sample{{1, 100}, {2, 150}, {4, 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.NonIncreasing() || got.P != 0 {
		t.Fatalf("anomalous fit not clamped: %+v", got)
	}
}

func TestOptimalExecutorsRule(t *testing.T) {
	c := Curve{S: 100, P: 1000}
	opt := c.OptimalExecutors(1, 1000, 0.01)
	// The rule's boundary: gain at opt < threshold, gain at opt−1 ≥ it.
	gain := func(e int) float64 {
		fe := float64(e)
		return c.P / (fe*fe*c.S + fe*c.P)
	}
	if gain(opt) >= 0.01 {
		t.Fatalf("gain at opt %d = %v not below threshold", opt, gain(opt))
	}
	if opt > 1 && gain(opt-1) < 0.01 {
		t.Fatalf("opt %d not minimal", opt)
	}
	// Flat curve: one executor suffices.
	flat := Curve{S: 50, P: 0}
	if got := flat.OptimalExecutors(1, 100, 0.01); got != 1 {
		t.Fatalf("flat optimal %d", got)
	}
	// Clamping.
	if got := c.OptimalExecutors(5, 5, 0.01); got != 5 {
		t.Fatalf("clamped optimal %d", got)
	}
}

func TestOptimalExecutorsBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Curve{S: rng.Float64() * 200, P: rng.Float64() * 5000}
		min := 1 + rng.Intn(5)
		max := min + rng.Intn(200)
		th := 0.001 + rng.Float64()*0.1
		opt := c.OptimalExecutors(min, max, th)
		return opt >= min && opt <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSweepExecutorsMonotone(t *testing.T) {
	recs := ingest(t, 10, 2)
	p := Platform{CoresPerExecutor: 4}
	for _, rec := range recs[:5] {
		samples, err := p.SweepExecutors(rec.Skyline, []int{1, 2, 4, 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(samples); i++ {
			// AREPAS at more slots never slows down (beyond rounding).
			if samples[i].Runtime > samples[i-1].Runtime+2 {
				t.Fatalf("sweep not monotone: %+v", samples)
			}
		}
	}
	if _, err := p.SweepExecutors(skyline.Skyline{1}, []int{0}); err == nil {
		t.Fatal("zero executor count accepted")
	}
}

func TestTrainAndPredictEndToEnd(t *testing.T) {
	recs := ingest(t, 200, 3)
	train, test := recs[:150], recs[150:]
	p := Platform{CoresPerExecutor: 4}
	m, err := Train(train, p)
	if err != nil {
		t.Fatal(err)
	}

	// Point predictions track ground truth within a reasonable band.
	var preds, truth []float64
	var ex scopesim.Executor
	for _, rec := range test {
		const executors = 8
		preds = append(preds, m.PredictRuntime(rec.Job, executors))
		rt, err := p.Run(&ex, rec.Job, executors)
		if err != nil {
			t.Fatal(err)
		}
		truth = append(truth, float64(rt))
	}
	if mape := stats.MedianAPE(preds, truth); mape > 0.6 {
		t.Fatalf("spark adaptation MedianAPE %.1f%%", mape*100)
	}

	// Curves are monotone and usable for optimal-executor selection.
	for _, rec := range test[:10] {
		curve, err := m.PredictCurve(rec.Job, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !curve.NonIncreasing() || !curve.Valid() {
			t.Fatalf("bad curve %+v", curve)
		}
		opt := curve.OptimalExecutors(1, 64, 0.01)
		if opt < 1 || opt > 64 {
			t.Fatalf("optimal executors %d", opt)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Platform{CoresPerExecutor: 4}); err == nil {
		t.Fatal("empty training accepted")
	}
}
