package drift

import (
	"math"
	"testing"

	"tasq/internal/stats"
)

func TestRelAbsError(t *testing.T) {
	cases := []struct {
		pred, obs, want float64
	}{
		{100, 100, 0},
		{150, 100, 0.5},
		{50, 100, 0.5},
		{0, 100, 1},
		{100, -50, 3}, // |100-(-50)|/|-50|
	}
	for _, c := range cases {
		if got := RelAbsError(c.pred, c.obs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelAbsError(%v, %v) = %v, want %v", c.pred, c.obs, got, c.want)
		}
	}
	if got := RelAbsError(10, 0); !math.IsNaN(got) {
		t.Errorf("RelAbsError with zero observed = %v, want NaN", got)
	}
}

// detector is NewDetector for a config the test knows is valid.
func detector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSeriesFold(t *testing.T) {
	s, err := NewSeries(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Value() != 0 || s.N() != 0 {
		t.Fatal("fresh series not zero")
	}
	// First observation seeds directly.
	if got := s.Observe(0.4); got != 0.4 {
		t.Fatalf("first observe = %v, want 0.4", got)
	}
	// Second folds with alpha 0.5: 0.4 + 0.5*(0.8-0.4) = 0.6.
	if got := s.Observe(0.8); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("second observe = %v, want 0.6", got)
	}
	if s.N() != 2 {
		t.Fatalf("N = %d, want 2", s.N())
	}
	// NaN and negatives are ignored.
	if got := s.Observe(math.NaN()); got != s.Value() || s.N() != 2 {
		t.Fatal("NaN observation folded")
	}
	if got := s.Observe(-1); got != s.Value() || s.N() != 2 {
		t.Fatal("negative observation folded")
	}
	s.Reset()
	if s.Value() != 0 || s.N() != 0 {
		t.Fatal("reset did not clear the series")
	}
}

// TestSeriesDefaultAlpha pins that an alpha outside (0, 1], which used to
// fall back to the default 0.1 silently, is refused, and that the default
// and the bounds are accepted.
func TestSeriesDefaultAlpha(t *testing.T) {
	for _, bad := range []float64{0, -0.2, 1.5, math.NaN()} {
		if _, err := NewSeries(bad); err == nil {
			t.Errorf("alpha %v accepted", bad)
		}
	}
	for _, ok := range []float64{DefaultConfig().Alpha, 1, math.SmallestNonzeroFloat64} {
		if s, err := NewSeries(ok); err != nil || s.alpha != ok {
			t.Errorf("alpha %v: %v", ok, err)
		}
	}
}

func TestDetectorAlarm(t *testing.T) {
	d := detector(t, Config{Alpha: 1, Threshold: 0.3, MinSamples: 5})
	// Four high-error observations: below MinSamples, never alarmed.
	for i := 0; i < 4; i++ {
		obs := d.Observe("xgboost-pl", 200, 100)
		if obs.Alarm {
			t.Fatalf("alarm at n=%d, below MinSamples", obs.N)
		}
	}
	if d.Alarmed("xgboost-pl") {
		t.Fatal("Alarmed before MinSamples")
	}
	// Fifth pushes past MinSamples with EWMA 1.0 > 0.3.
	obs := d.Observe("xgboost-pl", 200, 100)
	if !obs.Alarm || obs.N != 5 {
		t.Fatalf("no alarm at n=%d ewma=%v", obs.N, obs.EWMA)
	}
	if !d.Alarmed("xgboost-pl") {
		t.Fatal("Alarmed disagrees with Observe")
	}
	// An unrelated key stays independent and quiet.
	if d.Alarmed("nn") {
		t.Fatal("unobserved key alarmed")
	}
	for i := 0; i < 10; i++ {
		if obs := d.Observe("nn", 101, 100); obs.Alarm {
			t.Fatal("accurate predictions alarmed")
		}
	}
	// Reset clears the alarm state.
	d.Reset()
	if d.Alarmed("xgboost-pl") {
		t.Fatal("alarm survived Reset")
	}
}

func TestDetectorSkipsZeroObserved(t *testing.T) {
	d := detector(t, DefaultConfig())
	obs := d.Observe("m", 10, 0)
	if !obs.Skipped {
		t.Fatal("zero observed not skipped")
	}
	if got := d.Snapshot()["m"]; got.N != 0 {
		t.Fatalf("skipped sample folded: %+v", got)
	}
}

// TestDetectorDefaults pins DefaultConfig at the values a zero config used
// to be filled in with, and that a zero or otherwise meaningless field is
// now refused.
func TestDetectorDefaults(t *testing.T) {
	def := DefaultConfig()
	if want := (Config{Alpha: 0.1, Threshold: 0.5, MinSamples: 16}); def != want {
		t.Fatalf("DefaultConfig() = %+v, want %+v", def, want)
	}
	if d := detector(t, def); d.Config() != def {
		t.Fatalf("detector runs %+v, want %+v", d.Config(), def)
	}
	for name, cfg := range map[string]Config{
		"zero":           {},
		"alpha 0":        {Alpha: 0, Threshold: 0.5, MinSamples: 16},
		"alpha 1.5":      {Alpha: 1.5, Threshold: 0.5, MinSamples: 16},
		"threshold 0":    {Alpha: 0.1, Threshold: 0, MinSamples: 16},
		"threshold -0.1": {Alpha: 0.1, Threshold: -0.1, MinSamples: 16},
		"threshold NaN":  {Alpha: 0.1, Threshold: math.NaN(), MinSamples: 16},
		"threshold +Inf": {Alpha: 0.1, Threshold: math.Inf(1), MinSamples: 16},
		"min samples 0":  {Alpha: 0.1, Threshold: 0.5, MinSamples: 0},
		"min samples -3": {Alpha: 0.1, Threshold: 0.5, MinSamples: -3},
	} {
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDetectorSnapshotAndKeys(t *testing.T) {
	d := detector(t, Config{Alpha: 1, Threshold: 0.5, MinSamples: 1})
	d.Observe("b", 150, 100)
	d.Observe("a", 100, 100)
	keys := d.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	snap := d.Snapshot()
	if snap["b"].EWMA != 0.5 || snap["b"].N != 1 {
		t.Fatalf("snapshot b = %+v", snap["b"])
	}
}

// TestDetectorDeterministic proves the streaming fold is a pure function
// of the observation sequence — the property the seeded autopilot runs
// lean on.
func TestDetectorDeterministic(t *testing.T) {
	run := func() []Observation {
		d := detector(t, Config{Alpha: 0.2, Threshold: 0.4, MinSamples: 3})
		var out []Observation
		for i := 0; i < 50; i++ {
			pred := 100 + float64(i%7)*13
			obs := 100 + float64(i%5)*9
			out = append(out, d.Observe("m", pred, obs))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestAccumulatorMatchesStats pins the offline view to the exact stats
// functions the experiment tables have always used — the byte-identical
// report guarantee of the refactor.
func TestAccumulatorMatchesStats(t *testing.T) {
	pred := []float64{110, 95, 300, 42}
	truth := []float64{100, 100, 250, 40}
	var acc Accumulator
	for i := range pred {
		acc.Add(pred[i], truth[i])
	}
	if acc.N() != len(pred) {
		t.Fatalf("N = %d", acc.N())
	}
	if got, want := acc.MedianAPE(), stats.MedianAPE(pred, truth); got != want {
		t.Fatalf("MedianAPE = %v, want %v", got, want)
	}
	if got, want := acc.MeanAPE(), stats.MeanAPE(pred, truth); got != want {
		t.Fatalf("MeanAPE = %v, want %v", got, want)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.MedianAPE() != 0 || acc.MeanAPE() != 0 || acc.N() != 0 {
		t.Fatal("empty accumulator not zero")
	}
}
