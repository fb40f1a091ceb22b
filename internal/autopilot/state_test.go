package autopilot

import (
	"math"
	"testing"
)

func testMachineConfig() MachineConfig {
	return MachineConfig{
		PromoteMinN:     4,
		PromoteDelta:    0.05,
		GuardrailWindow: 6,
		GuardAlpha:      0.5,
		GuardMinSamples: 2,
	}
}

// TestMachinePromotionTable drives the promote/reject decision through
// the satellite's required scenarios.
func TestMachinePromotionTable(t *testing.T) {
	cases := []struct {
		name string
		// cand/active error pairs fed in order.
		pairs [][2]float64
		want  Action // the last action returned
		phase Phase  // machine phase afterwards
	}{
		{
			name:  "insufficient sample: no decision",
			pairs: [][2]float64{{0.1, 0.5}, {0.1, 0.5}, {0.1, 0.5}},
			want:  ActionNone,
			phase: PhaseCandidate,
		},
		{
			name:  "candidate clearly better: promote",
			pairs: [][2]float64{{0.1, 0.5}, {0.1, 0.5}, {0.1, 0.5}, {0.1, 0.5}},
			want:  ActionPromote,
			phase: PhaseGuard,
		},
		{
			name:  "candidate worse: reject",
			pairs: [][2]float64{{0.5, 0.1}, {0.5, 0.1}, {0.5, 0.1}, {0.5, 0.1}},
			want:  ActionReject,
			phase: PhaseSteady,
		},
		{
			name:  "marginal win inside delta: reject",
			pairs: [][2]float64{{0.48, 0.5}, {0.48, 0.5}, {0.48, 0.5}, {0.48, 0.5}},
			want:  ActionReject,
			phase: PhaseSteady,
		},
		{
			name: "NaN pairs are skipped, not counted",
			pairs: [][2]float64{
				{math.NaN(), 0.5}, {0.1, math.NaN()},
				{0.1, 0.5}, {0.1, 0.5}, {0.1, 0.5},
			},
			want:  ActionNone, // only 3 valid samples folded
			phase: PhaseCandidate,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, testMachineConfig())
			m.StartCandidate(7)
			if m.Phase() != PhaseCandidate || m.CandidateVersion() != 7 {
				t.Fatalf("after StartCandidate: phase=%v version=%d", m.Phase(), m.CandidateVersion())
			}
			last := ActionNone
			for _, p := range tc.pairs {
				last = m.ObserveCandidate(p[0], p[1])
			}
			if last != tc.want {
				t.Fatalf("last action %v, want %v", last, tc.want)
			}
			if m.Phase() != tc.phase {
				t.Fatalf("phase %v, want %v", m.Phase(), tc.phase)
			}
		})
	}
}

// TestMachineDecidesExactlyOnce: the promote/reject decision fires at the
// PromoteMinN-th sample and never re-fires.
func TestMachineDecidesExactlyOnce(t *testing.T) {
	m := newMachine(t, testMachineConfig())
	m.StartCandidate(2)
	decisions := 0
	for i := 0; i < 20; i++ {
		if act := m.ObserveCandidate(0.5, 0.1); act != ActionNone {
			decisions++
			if act != ActionReject {
				t.Fatalf("action %v, want reject", act)
			}
			if i != 3 {
				t.Fatalf("decision at sample %d, want 4th", i+1)
			}
		}
	}
	if decisions != 1 {
		t.Fatalf("%d decisions, want exactly 1", decisions)
	}
}

// TestMachineGuardrail covers the post-promotion scenarios: spike →
// rollback exactly once; clean window → guard pass.
func TestMachineGuardrail(t *testing.T) {
	promote := func(t *testing.T) *Machine {
		t.Helper()
		m := newMachine(t, testMachineConfig())
		m.StartCandidate(3)
		var act Action
		for i := 0; i < 4; i++ {
			act = m.ObserveCandidate(0.1, 0.5)
		}
		if act != ActionPromote || m.Phase() != PhaseGuard {
			t.Fatalf("setup: action %v phase %v", act, m.Phase())
		}
		return m
	}

	t.Run("error spike rolls back exactly once", func(t *testing.T) {
		m := promote(t)
		// Baseline is candMean=0.1; threshold = 2 × max(0.1, 0.05) = 0.2.
		// Feed huge errors: the first is below GuardMinSamples, the second
		// fires.
		if act := m.ObserveGuard(3.0); act != ActionNone {
			t.Fatalf("rollback before GuardMinSamples: %v", act)
		}
		if act := m.ObserveGuard(3.0); act != ActionRollback {
			t.Fatalf("action %v, want rollback (ewma %.3f)", act, m.GuardEWMA())
		}
		if m.Phase() != PhaseSteady {
			t.Fatalf("phase %v after rollback", m.Phase())
		}
		// The machine left the guard: further spikes emit nothing.
		for i := 0; i < 10; i++ {
			if act := m.ObserveGuard(5.0); act != ActionNone {
				t.Fatalf("second guard action %v after rollback", act)
			}
		}
	})

	t.Run("clean window passes", func(t *testing.T) {
		m := promote(t)
		var last Action
		for i := 0; i < 6; i++ {
			last = m.ObserveGuard(0.12)
		}
		if last != ActionGuardPass || m.Phase() != PhaseSteady {
			t.Fatalf("action %v phase %v, want guard-pass/steady", last, m.Phase())
		}
	})

	t.Run("one bounded outlier does not roll back", func(t *testing.T) {
		m := promote(t)
		// Threshold is 2 × baseline = 0.2. One 0.25 sample folded at
		// alpha 0.5 into a 0.1 stream peaks the EWMA at 0.175 — smoothing
		// absorbs it; only a sustained spike crosses.
		seq := []float64{0.1, 0.25, 0.1, 0.1, 0.1, 0.1}
		var last Action
		for _, v := range seq {
			last = m.ObserveGuard(v)
			if last == ActionRollback {
				t.Fatalf("outlier rolled back (ewma %.3f)", m.GuardEWMA())
			}
		}
		if last != ActionGuardPass {
			t.Fatalf("final action %v, want guard-pass", last)
		}
	})
}

// TestMachinePhaseDiscipline: observations in the wrong phase are inert,
// and StartCandidate never preempts an in-flight decision.
func TestMachinePhaseDiscipline(t *testing.T) {
	m := newMachine(t, testMachineConfig())
	if act := m.ObserveCandidate(0.1, 0.5); act != ActionNone {
		t.Fatalf("steady ObserveCandidate: %v", act)
	}
	if act := m.ObserveGuard(9.9); act != ActionNone {
		t.Fatalf("steady ObserveGuard: %v", act)
	}
	m.StartCandidate(4)
	m.StartCandidate(5) // ignored: candidate 4 is in flight
	if m.CandidateVersion() != 4 {
		t.Fatalf("candidate %d, want 4", m.CandidateVersion())
	}
	if act := m.ObserveGuard(9.9); act != ActionNone || m.Phase() != PhaseCandidate {
		t.Fatalf("candidate-phase ObserveGuard: %v %v", act, m.Phase())
	}
	m.Reset()
	if m.Phase() != PhaseSteady || m.CandidateVersion() != 0 || m.SampleN() != 0 {
		t.Fatalf("reset left state: %+v", m)
	}
}

// TestMachineDefaults pins DefaultMachineConfig at the values a zero
// config used to be filled in with, and that a zero or otherwise
// meaningless field is now refused.
func TestMachineDefaults(t *testing.T) {
	def := DefaultMachineConfig()
	want := MachineConfig{
		PromoteMinN: 32, PromoteDelta: 0.02,
		GuardrailWindow: 64, GuardAlpha: 0.3, GuardMinSamples: 4,
	}
	if def != want {
		t.Fatalf("DefaultMachineConfig() = %+v, want %+v", def, want)
	}
	if m := newMachine(t, def); m.Config() != def {
		t.Fatalf("machine runs %+v, want %+v", m.Config(), def)
	}
	for name, mutate := range map[string]func(*MachineConfig){
		"zero":                func(c *MachineConfig) { *c = MachineConfig{} },
		"promote-min-n 0":     func(c *MachineConfig) { c.PromoteMinN = 0 },
		"promote delta 0":     func(c *MachineConfig) { c.PromoteDelta = 0 },
		"promote delta NaN":   func(c *MachineConfig) { c.PromoteDelta = math.NaN() },
		"guardrail-window -5": func(c *MachineConfig) { c.GuardrailWindow = -5 },
		"guard alpha 0":       func(c *MachineConfig) { c.GuardAlpha = 0 },
		"guard alpha 1.5":     func(c *MachineConfig) { c.GuardAlpha = 1.5 },
		"guard min samples 0": func(c *MachineConfig) { c.GuardMinSamples = 0 },
	} {
		c := DefaultMachineConfig()
		mutate(&c)
		if _, err := NewMachine(c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// newMachine is NewMachine for a config the test knows is valid.
func newMachine(t *testing.T, cfg MachineConfig) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
