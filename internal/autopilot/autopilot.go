// Package autopilot closes the paper's Figure-4 learning loop. The
// deployment picture in the paper is a cycle — jobs are scored, run, and
// their observed (tokens, runtime) telemetry flows back into model
// refresh — but until now this repo hand-cranked that cycle with CLI
// steps. The autopilot drives it end to end:
//
//	telemetry → window store → drift detector ─── alarm ───→ retrain
//	     ▲                                                        │
//	     │                                                 publish candidate
//	     │                                                        ▼
//	rollback ←─ guardrail ←─ auto-promote ←─ shadow comparison (min-N)
//
// Invariants:
//
//   - The active version is always pinned before a candidate is
//     published, so the serving reloader treats the candidate as a
//     shadow, never as a surprise activation.
//   - Promotion happens exactly once per candidate, only after
//     PromoteMinN paired error samples, and only if the candidate's mean
//     relative error beats the active model's by PromoteDelta.
//   - After a promotion, the previous generation is recorded in the
//     registry's PROMOTION record (protecting it from GC) and the
//     guardrail watches the next GuardrailWindow observations; an error
//     spike rolls back to it exactly once.
//   - Rolled-back and rejected versions are quarantined: the autopilot
//     never promotes them again.
//
// Everything is driven by the observation sequence — a record-count
// logical clock, no wall time — so a seeded workload replayed through
// Observe produces an identical event log every run.
package autopilot

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"tasq/internal/drift"
	"tasq/internal/jobrepo"
	"tasq/internal/obs"
	"tasq/internal/registry"
	"tasq/internal/serve"
	"tasq/internal/trainer"
)

// Config parameterizes an Autopilot. DefaultConfig states every default;
// New refuses a value that means nothing rather than substituting one.
type Config struct {
	// Drift configures the online detector.
	Drift drift.Config
	// Machine configures the promotion state machine.
	Machine MachineConfig
	// Train is the retraining configuration. The seed makes retrains
	// deterministic; online retrains usually skip the NN/GNN stages for
	// latency.
	Train trainer.Config
	// RetrainMinRecords is the smallest window that triggers a retrain,
	// at least 1.
	RetrainMinRecords int
	// CooldownRecords is the minimum number of observations between
	// retrain attempts (successful or not), at least 1, bounding training
	// cost when an alarm stays raised.
	CooldownRecords int64
	// QueueCap bounds the async ingest queue, at least 1; a full queue
	// pushes ErrTelemetryBackpressure to producers.
	QueueCap int
	// Logf, when set, receives human-oriented progress lines (the event
	// log is the machine-oriented record).
	Logf func(format string, args ...any)
}

// DefaultConfig returns an autopilot configuration with cheap, seeded
// online retrains (NN/GNN stages skipped).
func DefaultConfig(seed int64) Config {
	tc := trainer.DefaultConfig(seed)
	tc.SkipNN = true
	tc.SkipGNN = true
	return Config{
		Drift:             drift.DefaultConfig(),
		Machine:           DefaultMachineConfig(),
		Train:             tc,
		RetrainMinRecords: 30,
		CooldownRecords:   50,
		QueueCap:          1024,
	}
}

// Status is a snapshot of the autopilot's progress.
type Status struct {
	Phase            Phase
	ActiveVersion    int
	CandidateVersion int
	PreviousVersion  int
	Observations     int64
	WindowLen        int
	Retrains         int
	Promotions       int
	Rollbacks        int
	Rejects          int
	Quarantined      []int
}

// Autopilot runs the continuous-learning loop against a model registry.
// Records arrive either synchronously through Observe (deterministic
// tests, harness) or asynchronously through IngestTelemetry + Start (the
// serving path). All loop state is guarded by one mutex and every
// transition happens inside Observe, so the event log is a pure function
// of the observation sequence.
type Autopilot struct {
	cfg Config
	reg *registry.Registry
	win *Window
	det *drift.Detector

	// SyncFn, when set, is invoked after every registry mutation the
	// serving side must notice (candidate publish, promotion pin,
	// rollback pin) — normally the serving Reloader's Sync. Set before
	// the first Observe; errors are logged to the event stream, never
	// fatal (the reloader's own poll will catch up).
	SyncFn func() error

	mu         sync.Mutex
	mach       *Machine
	activeVer  int
	activePipe *trainer.Pipeline
	prevVer    int
	prevPipe   *trainer.Pipeline
	candVer    int
	candPipe   *trainer.Pipeline
	quarantine map[int]bool
	lastAlarm  map[string]bool
	n          int64 // logical clock: observations seen
	lastTrainN int64 // observation count at the last retrain attempt
	events     []string

	retrains, promotions, rollbacks, rejects int

	met *apMetrics

	queue     chan *jobrepo.Record
	loopOnce  sync.Once
	done      chan struct{}
	processed atomic.Int64
}

// New builds an autopilot over a registry. The window may be nil
// (ingested records are then observed but not retained — drift detection
// without retraining, for read-only deployments). A config value that
// means nothing, the retraining config's included, is refused here rather
// than at the first retrain.
func New(reg *registry.Registry, win *Window, cfg Config) (*Autopilot, error) {
	det, err := drift.NewDetector(cfg.Drift)
	if err != nil {
		return nil, err
	}
	mach, err := NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.RetrainMinRecords < 1:
		return nil, fmt.Errorf("autopilot: retrain min records %d: must be at least 1", cfg.RetrainMinRecords)
	case cfg.CooldownRecords < 1:
		return nil, fmt.Errorf("autopilot: cooldown records %d: must be at least 1", cfg.CooldownRecords)
	case cfg.QueueCap < 1:
		return nil, fmt.Errorf("autopilot: queue cap %d: must be at least 1", cfg.QueueCap)
	}
	return &Autopilot{
		cfg:        cfg,
		reg:        reg,
		win:        win,
		det:        det,
		mach:       mach,
		quarantine: make(map[int]bool),
		lastAlarm:  make(map[string]bool),
		lastTrainN: -int64(1 << 40), // the first retrain owes no cooldown
		queue:      make(chan *jobrepo.Record, cfg.QueueCap),
		done:       make(chan struct{}),
	}, nil
}

// apMetrics holds the obs handles; nil-safe so metrics are optional.
type apMetrics struct {
	reg        *obs.Registry
	samples    *obs.Counter
	retrains   *obs.Counter
	promotions *obs.Counter
	rollbacks  *obs.Counter
	rejects    *obs.Counter
}

// BindMetrics exports the loop's drift and decision metrics into reg —
// typically the serving Server's registry, so /metrics shows the whole
// loop. Call before the first Observe.
func (a *Autopilot) BindMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.SetHelp(obs.MetricDriftEWMA, "Smoothed relative |predicted-observed| runtime error per predictor, in parts per million.")
	reg.SetHelp(obs.MetricDriftSamples, "Telemetry samples folded into the drift detector.")
	reg.SetHelp(obs.MetricDriftAlarms, "Drift alarm raises per predictor (transitions into the alarmed state).")
	reg.SetHelp(obs.MetricAutopilotRetrains, "Autopilot retrain attempts.")
	reg.SetHelp(obs.MetricAutopilotPromotions, "Autopilot candidate promotions (auto-pins).")
	reg.SetHelp(obs.MetricAutopilotRollbacks, "Autopilot guardrail rollbacks to the previous generation.")
	reg.SetHelp(obs.MetricAutopilotRejects, "Autopilot candidates rejected after shadow comparison.")
	a.met = &apMetrics{
		reg:        reg,
		samples:    reg.Counter(obs.MetricDriftSamples),
		retrains:   reg.Counter(obs.MetricAutopilotRetrains),
		promotions: reg.Counter(obs.MetricAutopilotPromotions),
		rollbacks:  reg.Counter(obs.MetricAutopilotRollbacks),
		rejects:    reg.Counter(obs.MetricAutopilotRejects),
	}
}

// IngestTelemetry implements serve.TelemetrySink: records are queued for
// the loop goroutine. A full queue stops mid-batch and reports
// backpressure; the accepted prefix stays accepted (re-submissions are
// deduplicated at training time).
func (a *Autopilot) IngestTelemetry(recs []*jobrepo.Record) (int, error) {
	for i, rec := range recs {
		select {
		case a.queue <- rec:
		default:
			return i, serve.ErrTelemetryBackpressure
		}
	}
	return len(recs), nil
}

// Start launches the loop goroutine draining the ingest queue; it stops
// when ctx is cancelled. Call at most once.
func (a *Autopilot) Start(ctx context.Context) {
	a.loopOnce.Do(func() {
		go func() {
			defer close(a.done)
			for {
				select {
				case <-ctx.Done():
					return
				case rec := <-a.queue:
					a.Observe(rec)
				}
			}
		}()
	})
}

// Wait blocks until the loop goroutine has exited after Start's context
// was cancelled.
func (a *Autopilot) Wait() { <-a.done }

// Processed returns how many records Observe has fully handled — the
// quiescing hook for tests that ingest asynchronously.
func (a *Autopilot) Processed() int64 { return a.processed.Load() }

// Events returns a copy of the deterministic event log: one line per
// loop decision, stamped with the record-count logical clock. Two
// same-seed runs produce identical logs — the reproducibility artifact
// the chaos harness compares.
func (a *Autopilot) Events() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.events))
	copy(out, a.events)
	return out
}

// Status snapshots the loop.
func (a *Autopilot) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		Phase:            a.mach.Phase(),
		ActiveVersion:    a.activeVer,
		CandidateVersion: a.candVer,
		PreviousVersion:  a.prevVer,
		Observations:     a.n,
		Retrains:         a.retrains,
		Promotions:       a.promotions,
		Rollbacks:        a.rollbacks,
		Rejects:          a.rejects,
	}
	if a.win != nil {
		st.WindowLen = a.win.Len()
	}
	for v := range a.quarantine {
		st.Quarantined = append(st.Quarantined, v)
	}
	for i := 1; i < len(st.Quarantined); i++ { // insertion sort: tiny set
		for j := i; j > 0 && st.Quarantined[j] < st.Quarantined[j-1]; j-- {
			st.Quarantined[j], st.Quarantined[j-1] = st.Quarantined[j-1], st.Quarantined[j]
		}
	}
	return st
}

// Detector exposes the online drift detector (read-only use).
func (a *Autopilot) Detector() *drift.Detector { return a.det }

func (a *Autopilot) eventf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	a.events = append(a.events, line)
	if a.cfg.Logf != nil {
		a.cfg.Logf("autopilot: %s", line)
	}
}

func (a *Autopilot) syncLocked() {
	if a.SyncFn == nil {
		return
	}
	if err := a.SyncFn(); err != nil {
		a.eventf("n=%d serving sync failed: %v", a.n, err)
	}
}

// Observe drives the loop with one observed run. It is the loop's only
// state-transition point: window append, drift fold, candidate
// comparison, guardrail check, and retrain scheduling all happen here,
// under one lock, in a fixed order — which is what makes a replayed
// observation sequence reproduce the exact event log.
func (a *Autopilot) Observe(rec *jobrepo.Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.processed.Add(1)
	if rec == nil || rec.Validate() != nil {
		return
	}
	a.n++
	if a.win != nil {
		if err := a.win.Append(rec); err != nil {
			a.eventf("n=%d window append %s: %v", a.n, rec.Job.ID, err)
		}
	}
	if a.activePipe == nil {
		if err := a.bootstrapLocked(); err != nil {
			// Registry unreachable or artifact read faulted: skip this
			// record's scoring and retry the bootstrap on the next one.
			a.eventf("n=%d bootstrap: %v", a.n, err)
			return
		}
	}
	curve, name, err := a.activePipe.ScoreJob(rec.Job)
	if err != nil {
		a.eventf("n=%d scoring %s: %v", a.n, rec.Job.ID, err)
		return
	}
	pred := curve.Runtime(float64(rec.ObservedTokens))
	o := a.det.Observe(name, pred, float64(rec.RuntimeSeconds))
	a.recordDriftMetricsLocked(o)

	switch a.mach.Phase() {
	case PhaseCandidate:
		a.observeCandidateLocked(rec, o)
	case PhaseGuard:
		switch a.mach.ObserveGuard(o.RelErr) {
		case ActionRollback:
			a.rollbackLocked()
		case ActionGuardPass:
			a.guardPassLocked()
		}
	case PhaseSteady:
		a.maybeRetrainLocked(o)
	}
}

func (a *Autopilot) recordDriftMetricsLocked(o drift.Observation) {
	if o.Skipped {
		return
	}
	if a.met != nil {
		a.met.samples.Inc()
		a.met.reg.Gauge(obs.MetricDriftEWMA, "model", o.Key).Set(int64(o.EWMA * 1e6))
		if o.Alarm && !a.lastAlarm[o.Key] {
			a.met.reg.Counter(obs.MetricDriftAlarms, "model", o.Key).Inc()
		}
	}
	if o.Alarm && !a.lastAlarm[o.Key] {
		a.eventf("n=%d drift alarm %s ewma=%.4f", a.n, o.Key, o.EWMA)
	}
	a.lastAlarm[o.Key] = o.Alarm
}

// bootstrapLocked resolves and loads the generation serving today —
// pinned, or latest if nothing is pinned — and pins it if needed. The
// pin-before-candidate invariant: with the active version pinned, a
// published candidate becomes the reloader's shadow, never a surprise
// activation.
func (a *Autopilot) bootstrapLocked() error {
	ver, err := a.reg.Pinned()
	if err != nil {
		return err
	}
	pinned := ver != 0
	if !pinned {
		if ver, err = a.reg.Latest(); err != nil {
			return err
		}
	}
	pipe, _, err := a.reg.GetPipeline(ver)
	if err != nil {
		return err
	}
	if !pinned {
		if err := a.reg.Pin(ver); err != nil {
			return err
		}
	}
	a.activeVer, a.activePipe = ver, pipe
	a.eventf("n=%d bootstrap active v%d pinned", a.n, ver)
	return nil
}

func (a *Autopilot) observeCandidateLocked(rec *jobrepo.Record, o drift.Observation) {
	if a.candPipe == nil { // defensive; candidates are always in-memory
		a.mach.Reset()
		return
	}
	candCurve, _, err := a.candPipe.ScoreJob(rec.Job)
	if err != nil {
		a.eventf("n=%d candidate v%d scoring %s: %v", a.n, a.candVer, rec.Job.ID, err)
		return
	}
	candErr := drift.RelAbsError(candCurve.Runtime(float64(rec.ObservedTokens)), float64(rec.RuntimeSeconds))
	switch a.mach.ObserveCandidate(candErr, o.RelErr) {
	case ActionPromote:
		a.promoteLocked()
	case ActionReject:
		a.rejectLocked()
	}
}

func (a *Autopilot) maybeRetrainLocked(o drift.Observation) {
	if !o.Alarm || a.win == nil || a.win.Len() < a.cfg.RetrainMinRecords {
		return
	}
	if a.n-a.lastTrainN < a.cfg.CooldownRecords {
		return
	}
	// The attempt consumes the cooldown whether it succeeds or not, so a
	// failing trainer or registry is retried at a bounded rate.
	a.lastTrainN = a.n
	a.retrains++
	if a.met != nil {
		a.met.retrains.Inc()
	}
	recs := a.win.Records()
	pipe, err := trainer.TrainWindow(recs, a.cfg.Train)
	if err != nil {
		a.eventf("n=%d retrain (alarm) failed: %v", a.n, err)
		return
	}
	ver, err := a.reg.PublishPipeline(pipe, registry.Manifest{
		Train: registry.SummarizeTraining(a.cfg.Train, len(recs)),
		Notes: fmt.Sprintf("autopilot retrain (alarm) at n=%d over %d records", a.n, len(recs)),
	})
	if err != nil {
		a.eventf("n=%d retrain (alarm) publish failed: %v", a.n, err)
		return
	}
	a.candVer, a.candPipe = ver, pipe
	a.mach.StartCandidate(ver)
	a.eventf("n=%d retrain (alarm) published candidate v%d window=%d", a.n, ver, len(recs))
	a.syncLocked()
}

func (a *Autopilot) promoteLocked() {
	cand, prev := a.candVer, a.activeVer
	candMean, activeMean := a.mach.CandidateMean(), a.mach.ActiveMean()
	if a.quarantine[cand] { // defensive: quarantined versions never win
		a.mach.Reset()
		a.candVer, a.candPipe = 0, nil
		a.eventf("n=%d refusing to promote quarantined v%d", a.n, cand)
		return
	}
	if err := a.reg.Promote(registry.PromotionRecord{
		Version: cand, Previous: prev, PromotedAtN: a.n,
		CandidateErr: candMean, ActiveErr: activeMean,
	}); err != nil {
		a.mach.Reset()
		a.eventf("n=%d promote v%d failed: %v", a.n, cand, err)
		return
	}
	if err := a.reg.Annotate(cand, map[string]string{
		"autopilot.promoted_at_n": strconv.FormatInt(a.n, 10),
		"autopilot.previous":      strconv.Itoa(prev),
	}); err != nil {
		a.eventf("n=%d promote annotation failed: %v", a.n, err)
	}
	a.prevVer, a.prevPipe = prev, a.activePipe
	a.activeVer, a.activePipe = cand, a.candPipe
	a.candVer, a.candPipe = 0, nil
	a.det.Reset() // the new generation starts with a clean drift record
	for k := range a.lastAlarm {
		a.lastAlarm[k] = false
	}
	a.promotions++
	if a.met != nil {
		a.met.promotions.Inc()
	}
	a.eventf("n=%d promoted v%d over v%d cand=%.4f active=%.4f", a.n, cand, prev, candMean, activeMean)
	a.syncLocked()
}

func (a *Autopilot) rejectLocked() {
	cand := a.candVer
	a.quarantine[cand] = true
	if err := a.reg.Annotate(cand, map[string]string{
		"autopilot.rejected_at_n": strconv.FormatInt(a.n, 10),
	}); err != nil {
		a.eventf("n=%d reject annotation failed: %v", a.n, err)
	}
	a.rejects++
	if a.met != nil {
		a.met.rejects.Inc()
	}
	a.eventf("n=%d rejected candidate v%d cand=%.4f active=%.4f", a.n, cand, a.mach.CandidateMean(), a.mach.ActiveMean())
	a.candVer, a.candPipe = 0, nil
}

func (a *Autopilot) rollbackLocked() {
	bad, prev := a.activeVer, a.prevVer
	if prev == 0 || a.prevPipe == nil {
		a.eventf("n=%d rollback requested but no previous generation", a.n)
		return
	}
	pinned, err := a.reg.RollBack(bad, prev, a.n)
	if !pinned {
		a.eventf("n=%d rollback pin v%d failed: %v", a.n, prev, err)
		return
	}
	if err != nil {
		a.eventf("n=%d rollback record failed: %v", a.n, err)
	}
	if err := a.reg.Annotate(bad, map[string]string{
		"autopilot.rolled_back_at_n": strconv.FormatInt(a.n, 10),
	}); err != nil {
		a.eventf("n=%d rollback annotation failed: %v", a.n, err)
	}
	a.quarantine[bad] = true
	a.activeVer, a.activePipe = prev, a.prevPipe
	a.prevVer, a.prevPipe = 0, nil
	a.det.Reset()
	for k := range a.lastAlarm {
		a.lastAlarm[k] = false
	}
	a.rollbacks++
	if a.met != nil {
		a.met.rollbacks.Inc()
	}
	a.eventf("n=%d rollback v%d -> v%d guard=%.4f", a.n, bad, prev, a.mach.GuardEWMA())
	a.syncLocked()
}

func (a *Autopilot) guardPassLocked() {
	// The promotion stuck: release the GC protection on the previous
	// generation and forget it.
	if err := a.reg.ClearPromotion(); err != nil {
		a.eventf("n=%d clearing promotion record: %v", a.n, err)
	}
	a.eventf("n=%d guard passed for v%d", a.n, a.activeVer)
	a.prevVer, a.prevPipe = 0, nil
}
