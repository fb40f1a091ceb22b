package autopilot

import (
	"fmt"
	"math"

	"tasq/internal/drift"
)

// Phase is the promotion state machine's position in the learning loop.
type Phase int

const (
	// PhaseSteady: no candidate in flight; the autopilot watches drift and
	// decides when to retrain.
	PhaseSteady Phase = iota
	// PhaseCandidate: a retrained candidate is published and being
	// shadow-compared against the active model on live telemetry.
	PhaseCandidate
	// PhaseGuard: a candidate was auto-promoted; the guardrail watches the
	// post-promotion error for a spike that would force a rollback.
	PhaseGuard
)

func (p Phase) String() string {
	switch p {
	case PhaseSteady:
		return "steady"
	case PhaseCandidate:
		return "candidate"
	case PhaseGuard:
		return "guard"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Action is what the state machine tells its caller to do after folding
// one observation. The machine is pure decision logic: the caller performs
// the side effects (pinning, registry records, model swaps).
type Action int

const (
	// ActionNone: keep observing.
	ActionNone Action = iota
	// ActionPromote: the candidate beat the active model over a
	// sufficient sample — pin it. The machine enters PhaseGuard.
	ActionPromote
	// ActionReject: the sample is sufficient but the candidate is not
	// better — discard it. The machine returns to PhaseSteady.
	ActionReject
	// ActionRollback: the post-promotion error spiked inside the watch
	// window — re-pin the previous generation. Emitted at most once per
	// promotion; the machine returns to PhaseSteady.
	ActionRollback
	// ActionGuardPass: the watch window elapsed without a spike — the
	// promotion sticks. The machine returns to PhaseSteady.
	ActionGuardPass
)

func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionPromote:
		return "promote"
	case ActionReject:
		return "reject"
	case ActionRollback:
		return "rollback"
	case ActionGuardPass:
		return "guard-pass"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// MachineConfig parameterizes the promotion state machine. NewMachine
// refuses a value that means nothing rather than substituting one: every
// count must be at least 1, PromoteDelta positive and finite, and
// GuardAlpha in (0, 1].
type MachineConfig struct {
	// PromoteMinN is the number of paired (candidate, active) error
	// samples required before the promote/reject decision — the
	// "statistically sufficient sample" of the issue. The decision is
	// made exactly once, at the Nth sample.
	PromoteMinN int
	// PromoteDelta is how much lower the candidate's mean relative error
	// must be than the active model's to win promotion: candMean +
	// PromoteDelta ≤ activeMean. A tie or marginal win keeps the devil we
	// know.
	PromoteDelta float64
	// GuardrailWindow is the number of post-promotion observations the
	// guardrail watches before declaring the promotion sound.
	GuardrailWindow int
	// GuardAlpha is the EWMA smoothing factor of the guard series.
	GuardAlpha float64
	// GuardMinSamples is how many guard observations must fold before a
	// spike may fire, so one outlier run cannot undo a promotion.
	GuardMinSamples int
}

// The guardrail's spike test, fixed at the values every deployment uses:
// rollback when the smoothed post-promotion error exceeds guardrailFactor ×
// max(baseline, guardrailFloor), where baseline is the candidate's
// shadow-sample mean error at promotion time and the floor keeps a
// near-zero baseline from hair-triggering it.
const (
	guardrailFactor = 2.0
	guardrailFloor  = 0.05
)

// DefaultMachineConfig returns the defaults the autopilot uses.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		PromoteMinN:     32,
		PromoteDelta:    0.02,
		GuardrailWindow: 64,
		GuardAlpha:      0.3,
		GuardMinSamples: 4,
	}
}

// Machine is the pure promotion/rollback state machine. It folds error
// observations and answers with Actions; it performs no IO, so the full
// decision surface is table-testable and every transition is a
// deterministic function of the observation sequence. Not safe for
// concurrent use (the Autopilot serializes access).
type Machine struct {
	cfg   MachineConfig
	phase Phase

	// Candidate comparison sample.
	candVersion        int
	candSum, activeSum float64
	n                  int

	// Guardrail state. The guard series is reset at every promotion and
	// reads 0 until the first one.
	baseline float64
	guard    *drift.Series
	guardN   int
}

// NewMachine builds a machine, refusing a config value that means nothing.
// Settings with a tasqd flag are named after it.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	switch {
	case cfg.PromoteMinN < 1:
		return nil, fmt.Errorf("autopilot: promote-min-n %d: must be at least 1", cfg.PromoteMinN)
	case !(cfg.PromoteDelta > 0) || math.IsInf(cfg.PromoteDelta, 1):
		return nil, fmt.Errorf("autopilot: promote delta %v: must be positive and finite", cfg.PromoteDelta)
	case cfg.GuardrailWindow < 1:
		return nil, fmt.Errorf("autopilot: guardrail-window %d: must be at least 1", cfg.GuardrailWindow)
	case cfg.GuardMinSamples < 1:
		return nil, fmt.Errorf("autopilot: guard min samples %d: must be at least 1", cfg.GuardMinSamples)
	}
	guard, err := drift.NewSeries(cfg.GuardAlpha)
	if err != nil {
		return nil, fmt.Errorf("autopilot: guard series: %w", err)
	}
	return &Machine{cfg: cfg, guard: guard}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// Phase returns the current phase.
func (m *Machine) Phase() Phase { return m.phase }

// CandidateVersion returns the version under comparison (PhaseCandidate)
// or under guard (PhaseGuard); 0 in PhaseSteady.
func (m *Machine) CandidateVersion() int { return m.candVersion }

// CandidateMean returns the candidate's mean relative error over the
// comparison sample so far.
func (m *Machine) CandidateMean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.candSum / float64(m.n)
}

// ActiveMean returns the active model's mean relative error over the
// comparison sample so far.
func (m *Machine) ActiveMean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.activeSum / float64(m.n)
}

// GuardEWMA returns the guard series' smoothed error since the last
// promotion (0 before the first one and after Reset).
func (m *Machine) GuardEWMA() float64 { return m.guard.Value() }

// SampleN returns the number of paired comparison samples folded so far.
func (m *Machine) SampleN() int { return m.n }

// StartCandidate enters PhaseCandidate for a freshly published version,
// resetting the comparison sample. Valid from PhaseSteady only; calls in
// other phases are ignored (a promotion in flight is never preempted).
func (m *Machine) StartCandidate(version int) {
	if m.phase != PhaseSteady {
		return
	}
	m.phase = PhaseCandidate
	m.candVersion = version
	m.candSum, m.activeSum, m.n = 0, 0, 0
}

// Reset forces the machine back to PhaseSteady, dropping any candidate or
// guard state — the caller's escape hatch when a side effect (pin,
// publish) failed and the decision must be abandoned.
func (m *Machine) Reset() {
	m.phase = PhaseSteady
	m.candVersion = 0
	m.candSum, m.activeSum, m.n = 0, 0, 0
	m.baseline, m.guardN = 0, 0
	m.guard.Reset()
}

// ObserveCandidate folds one paired error sample (the candidate's and the
// active model's relative error on the same observed run) and returns the
// decision, which is made exactly once, at the PromoteMinN-th sample.
// NaN samples (no meaningful relative error) are skipped. Outside
// PhaseCandidate it returns ActionNone.
func (m *Machine) ObserveCandidate(candErr, activeErr float64) Action {
	if m.phase != PhaseCandidate {
		return ActionNone
	}
	if math.IsNaN(candErr) || math.IsNaN(activeErr) {
		return ActionNone
	}
	m.n++
	m.candSum += candErr
	m.activeSum += activeErr
	if m.n < m.cfg.PromoteMinN {
		return ActionNone
	}
	candMean, activeMean := m.CandidateMean(), m.ActiveMean()
	if candMean+m.cfg.PromoteDelta <= activeMean {
		// Promotion: arm the guardrail with the candidate's own shadow
		// error as the spike baseline.
		m.phase = PhaseGuard
		m.baseline = candMean
		m.guard.Reset()
		m.guardN = 0
		return ActionPromote
	}
	m.phase = PhaseSteady
	m.candVersion = 0
	return ActionReject
}

// ObserveGuard folds one post-promotion error sample of the newly active
// (promoted) model and returns ActionRollback on a spike, ActionGuardPass
// once the window elapses clean, ActionNone otherwise. A rollback is
// emitted at most once: both outcomes return the machine to PhaseSteady.
// NaN samples are skipped. Outside PhaseGuard it returns ActionNone.
func (m *Machine) ObserveGuard(relErr float64) Action {
	if m.phase != PhaseGuard {
		return ActionNone
	}
	if math.IsNaN(relErr) {
		return ActionNone
	}
	m.guardN++
	ewma := m.guard.Observe(relErr)
	threshold := guardrailFactor * math.Max(m.baseline, guardrailFloor)
	if m.guardN >= m.cfg.GuardMinSamples && ewma > threshold {
		m.phase = PhaseSteady
		m.candVersion = 0
		return ActionRollback
	}
	if m.guardN >= m.cfg.GuardrailWindow {
		m.phase = PhaseSteady
		m.candVersion = 0
		return ActionGuardPass
	}
	return ActionNone
}
