// Package drift is the shared model-drift arithmetic of the TASQ learning
// loop. The paper's Figure-4 deployment closes a feedback cycle — observed
// (tokens, runtime) telemetry flows back into model refresh — and both
// halves of that cycle ask the same question: how far are the model's
// predicted run times from the run times production actually observed?
//
// Two callers share one implementation:
//
//   - The offline ablation (internal/experiments) replays recorded days
//     through stale skylines and the trained model and reports the median
//     absolute percentage error of each — the batch view, served by
//     Accumulator.
//   - The online autopilot (internal/autopilot) watches live telemetry one
//     record at a time and needs a smoothed, thresholded alarm — the
//     streaming view, served by Detector: a per-key (per-predictor)
//     exponentially weighted moving average of the relative error, with an
//     alarm once the average crosses a threshold over a statistically
//     sufficient sample.
//
// Everything here is deterministic: the EWMA is a pure fold over the
// observation sequence, so same inputs in the same order reproduce the
// same alarms — the property the seeded autopilot chaos runs assert.
package drift

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tasq/internal/stats"
)

// RelAbsError is the relative absolute error |predicted−observed| /
// |observed| — the dimensionless drift unit every series in this package
// accumulates. A non-positive observed value has no meaningful relative
// error and returns NaN; callers skip those samples (mirroring
// stats.AbsPercentErrors, which drops zero-truth pairs).
func RelAbsError(predicted, observed float64) float64 {
	if observed == 0 {
		return math.NaN()
	}
	return math.Abs(predicted-observed) / math.Abs(observed)
}

// Series is an exponentially weighted moving average over a stream of
// non-negative error observations. The zero value is not usable; call
// NewSeries. Series is not safe for concurrent use (Detector adds the
// locking).
type Series struct {
	alpha float64
	value float64
	n     int64
}

// NewSeries returns an EWMA with smoothing factor alpha, which must be in
// (0, 1].
func NewSeries(alpha float64) (*Series, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("drift: alpha %v: must be in (0, 1]", alpha)
	}
	return &Series{alpha: alpha}, nil
}

// Observe folds one value into the average and returns the updated value.
// The first observation seeds the average directly (standard EWMA
// initialization — no bias toward zero). NaN and negative values are
// ignored and return the current average unchanged.
func (s *Series) Observe(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return s.value
	}
	s.n++
	if s.n == 1 {
		s.value = v
		return s.value
	}
	s.value += s.alpha * (v - s.value)
	return s.value
}

// Value returns the current average (0 before any observation).
func (s *Series) Value() float64 { return s.value }

// N returns the number of folded observations.
func (s *Series) N() int64 { return s.n }

// Reset clears the series, as after a model swap: the new generation's
// drift starts from scratch.
func (s *Series) Reset() { s.value, s.n = 0, 0 }

// Config parameterizes a Detector. NewDetector refuses a value that means
// nothing rather than substituting one.
type Config struct {
	// Alpha is the EWMA smoothing factor, in (0, 1].
	Alpha float64
	// Threshold is the positive, finite smoothed relative error at which a
	// key alarms.
	Threshold float64
	// MinSamples is the number of observations a key needs before its
	// alarm may fire, at least 1; below it a hot EWMA is noise, not drift.
	MinSamples int
}

// DefaultConfig returns the detector configuration the autopilot defaults
// to. Each observation contributes 10% to the average, so it spans
// roughly the last 10–20 samples: fast enough to catch a workload shift
// within one telemetry batch, slow enough that a single outlier run cannot
// fire an alarm. With the PCC models' typical ~10–30% median error, a
// threshold of 0.5 means "the model is now half wrong on average", an
// unambiguous drift signal, and 16 samples make it more than noise.
func DefaultConfig() Config {
	return Config{Alpha: 0.1, Threshold: 0.5, MinSamples: 16}
}

// Observation reports the outcome of one Detector.Observe call.
type Observation struct {
	// Key is the series the sample was folded into (the predictor name,
	// for the autopilot).
	Key string
	// RelErr is the sample's own relative absolute error.
	RelErr float64
	// EWMA is the key's smoothed error after folding the sample.
	EWMA float64
	// N is the key's observation count after folding the sample.
	N int64
	// Alarm reports whether the key is in the alarmed state: N ≥
	// MinSamples and EWMA > Threshold.
	Alarm bool
	// Skipped marks a sample that could not be folded (non-positive
	// observed value → no relative error).
	Skipped bool
}

// Detector maintains one EWMA per key and raises threshold alarms — the
// online generalization of the offline drift ablation. Safe for concurrent
// use.
type Detector struct {
	cfg Config

	mu     sync.Mutex
	series map[string]*Series
}

// NewDetector builds a detector, refusing a config value that means
// nothing. The threshold is named after its tasqd flag.
func NewDetector(cfg Config) (*Detector, error) {
	if _, err := NewSeries(cfg.Alpha); err != nil {
		return nil, err
	}
	if !(cfg.Threshold > 0) || math.IsInf(cfg.Threshold, 1) {
		return nil, fmt.Errorf("drift: drift-threshold %v: must be positive and finite", cfg.Threshold)
	}
	if cfg.MinSamples < 1 {
		return nil, fmt.Errorf("drift: min samples %d: must be at least 1", cfg.MinSamples)
	}
	return &Detector{cfg: cfg, series: make(map[string]*Series)}, nil
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Observe folds one (predicted, observed) pair into the key's series and
// reports the resulting state. Samples with a non-positive observed value
// are skipped (Observation.Skipped), never folded.
func (d *Detector) Observe(key string, predicted, observed float64) Observation {
	rel := RelAbsError(predicted, observed)
	if math.IsNaN(rel) {
		return Observation{Key: key, RelErr: rel, Skipped: true}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.series[key]
	if !ok {
		s = &Series{alpha: d.cfg.Alpha}
		d.series[key] = s
	}
	ewma := s.Observe(rel)
	return Observation{
		Key:    key,
		RelErr: rel,
		EWMA:   ewma,
		N:      s.n,
		Alarm:  s.n >= int64(d.cfg.MinSamples) && ewma > d.cfg.Threshold,
	}
}

// Alarmed reports whether a key is currently in the alarmed state.
func (d *Detector) Alarmed(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.series[key]
	return ok && s.n >= int64(d.cfg.MinSamples) && s.value > d.cfg.Threshold
}

// SeriesStat snapshots one key's series.
type SeriesStat struct {
	EWMA float64
	N    int64
}

// Snapshot returns the current state of every key.
func (d *Detector) Snapshot() map[string]SeriesStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]SeriesStat, len(d.series))
	for k, s := range d.series {
		out[k] = SeriesStat{EWMA: s.value, N: s.n}
	}
	return out
}

// Keys returns the observed keys in sorted order.
func (d *Detector) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.series))
	for k := range d.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset clears every series — the post-swap state: a newly promoted (or
// rolled-back-to) generation starts with a clean drift record.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.series {
		s.Reset()
	}
}

// Accumulator is the offline (batch) view: it collects (predicted, truth)
// pairs and reports the aggregate error statistics the experiment tables
// print. The zero value is ready to use. Not safe for concurrent use.
type Accumulator struct {
	pred, truth []float64
}

// Add records one pair.
func (a *Accumulator) Add(predicted, truth float64) {
	a.pred = append(a.pred, predicted)
	a.truth = append(a.truth, truth)
}

// N returns the number of recorded pairs.
func (a *Accumulator) N() int { return len(a.pred) }

// MedianAPE returns the median absolute percentage error (as a fraction)
// across the recorded pairs — the §5 evaluation metric. Zero-truth pairs
// are skipped, exactly as stats.AbsPercentErrors defines.
func (a *Accumulator) MedianAPE() float64 { return stats.MedianAPE(a.pred, a.truth) }

// MeanAPE returns the mean absolute percentage error (as a fraction).
func (a *Accumulator) MeanAPE() float64 { return stats.MeanAPE(a.pred, a.truth) }
