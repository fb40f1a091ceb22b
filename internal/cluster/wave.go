package cluster

import (
	"fmt"

	"tasq/internal/autopilot"
	"tasq/internal/registry"
)

// Syncer is what a promotion wave needs from a fleet member: a name and
// one explicit registry reconciliation. *Replica implements it.
type Syncer interface {
	ID() string
	Sync() error
}

// WaveConfig parameterizes a rolling promotion.
type WaveConfig struct {
	// Machine configures the promote/reject/guard decisions; RunWave
	// refuses it, before any side effect, if autopilot.NewMachine does.
	Machine autopilot.MachineConfig
	// OnEvent (optional) receives one call per wave step: "canary",
	// "promote", "reject", "adopt", "skip", "guard-pass", "rollback".
	// detail is the member ID for adopt/skip, the version otherwise.
	OnEvent func(event, detail string)
}

// WaveResult reports how a wave ended.
type WaveResult struct {
	Candidate int
	// Previous is the generation that was active fleet-wide before the
	// wave — the rollback target.
	Previous int
	// Outcome is the wave's final registry.WaveState* value.
	Outcome string
	// Samples and GuardSamples count the paired comparison and guardrail
	// observations folded.
	Samples      int
	GuardSamples int
	// Adopted and Skipped list member IDs: who synced onto the candidate
	// during the promoting pass and who could not (down at the time —
	// they adopt on restart, because the pin is registry state).
	Adopted []string
	Skipped []string
}

// Promoted reports whether the candidate ended up serving fleet-wide.
func (r *WaveResult) Promoted() bool { return r.Outcome == registry.WaveStateComplete }

// RunWave rolls a candidate version through a fleet, reusing the
// autopilot promotion state machine for every decision:
//
//  1. Freeze: the current active generation is pinned, so no replica
//     drifts onto the candidate by mere Sync.
//  2. Canary: members[0] syncs; under the pin the candidate loads as its
//     shadow, and observe feeds paired (candidate, active) error samples
//     into the machine until it promotes or rejects — exactly at the
//     PromoteMinN-th sample.
//  3. Promote: registry.Promote writes a promotion record naming the
//     rollback target and moves the pin to the candidate, and members
//     sync in order, canary first; each adoption is annotated on the
//     candidate's manifest. Members that are down get skipped — the pin
//     guarantees they adopt when they restart.
//  4. Guard: guard feeds post-promotion error samples; a spike rolls
//     back through registry.RollBack (pin first, then the record) and
//     resyncs the fleet, a clean window clears the promotion record, as
//     the autopilot's guard pass does, and annotates the wave complete.
//
// A rejected candidate leaves the fleet pinned to the previous
// generation — frozen deliberately, since the registry's latest version
// is now known-bad; the next wave (or an operator Unpin) moves it.
//
// observe(n) and guard(n) are the wave's error oracles, indexed by
// observation number so deterministic tests can script them.
func RunWave(reg *registry.Registry, members []Syncer, candidate int,
	observe func(n int) (candErr, activeErr float64),
	guard func(n int) float64,
	cfg WaveConfig) (*WaveResult, error) {

	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: wave over an empty fleet")
	}
	if observe == nil || guard == nil {
		return nil, fmt.Errorf("cluster: wave needs observe and guard oracles")
	}
	m, err := autopilot.NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	event := cfg.OnEvent
	if event == nil {
		event = func(string, string) {}
	}

	previous, err := previousVersion(reg, candidate)
	if err != nil {
		return nil, err
	}
	res := &WaveResult{Candidate: candidate, Previous: previous}

	// Freeze the fleet on the previous generation, then shadow the
	// candidate on the canary only.
	if err := reg.Pin(previous); err != nil {
		return nil, err
	}
	canary := members[0]
	if err := reg.SetWaveState(candidate, registry.WaveStateCanary, canary.ID()); err != nil {
		return nil, err
	}
	if err := canary.Sync(); err != nil {
		return nil, fmt.Errorf("cluster: canary %s: %w", canary.ID(), err)
	}
	event("canary", canary.ID())

	m.StartCandidate(candidate)

	// The machine decides at exactly the PromoteMinN-th non-NaN sample;
	// the bound only guards against an oracle that returns NaN forever.
	decision := autopilot.ActionNone
	maxSamples := 4 * m.Config().PromoteMinN
	for n := 0; decision == autopilot.ActionNone; n++ {
		if n >= maxSamples {
			return nil, fmt.Errorf("cluster: wave undecided after %d samples", n)
		}
		decision = m.ObserveCandidate(observe(n))
		res.Samples = n + 1
	}

	if decision == autopilot.ActionReject {
		res.Outcome = registry.WaveStateRejected
		event("reject", fmt.Sprintf("v%d", candidate))
		return res, reg.SetWaveState(candidate, registry.WaveStateRejected, "")
	}

	// Promote in the registry's one write order, the autopilot's.
	if err := reg.Promote(registry.PromotionRecord{
		Version:      candidate,
		Previous:     previous,
		PromotedAtN:  int64(m.SampleN()),
		CandidateErr: m.CandidateMean(),
		ActiveErr:    m.ActiveMean(),
	}); err != nil {
		return nil, err
	}
	if err := reg.SetWaveState(candidate, registry.WaveStatePromoting, ""); err != nil {
		return nil, err
	}
	event("promote", fmt.Sprintf("v%d", candidate))

	// Wave through the fleet in order, canary first (members[0]).
	for _, mem := range members {
		if err := mem.Sync(); err != nil {
			res.Skipped = append(res.Skipped, mem.ID())
			event("skip", mem.ID())
			continue
		}
		if err := reg.MarkWaveAdopted(candidate, mem.ID()); err != nil {
			return nil, err
		}
		res.Adopted = append(res.Adopted, mem.ID())
		event("adopt", mem.ID())
	}

	// Guardrail watch on the promoted generation.
	verdict := autopilot.ActionNone
	maxGuard := 4 * m.Config().GuardrailWindow
	for n := 0; verdict == autopilot.ActionNone; n++ {
		if n >= maxGuard {
			return nil, fmt.Errorf("cluster: guardrail undecided after %d samples", n)
		}
		verdict = m.ObserveGuard(guard(n))
		res.GuardSamples = n + 1
	}

	if verdict == autopilot.ActionRollback {
		res.Outcome = registry.WaveStateRolledBack
		if _, err := reg.RollBack(candidate, previous, int64(res.GuardSamples)); err != nil {
			return nil, err
		}
		if err := reg.SetWaveState(candidate, registry.WaveStateRolledBack, ""); err != nil {
			return nil, err
		}
		// Re-sync survivors back onto the previous generation; members
		// already down stay skipped and recover on restart via the pin.
		for _, mem := range members {
			if err := mem.Sync(); err != nil {
				event("skip", mem.ID())
			}
		}
		event("rollback", fmt.Sprintf("v%d", previous))
		return res, nil
	}

	// The promotion stuck: settle it, releasing GC's hold on previous.
	res.Outcome = registry.WaveStateComplete
	if err := reg.ClearPromotion(); err != nil {
		return nil, err
	}
	event("guard-pass", fmt.Sprintf("v%d", candidate))
	return res, reg.SetWaveState(candidate, registry.WaveStateComplete, "")
}

// previousVersion resolves the generation the fleet serves before the
// wave: the pinned version when one is set, otherwise the newest version
// below the candidate (the candidate itself is usually the latest, so
// "latest" would be wrong the moment it is published).
func previousVersion(reg *registry.Registry, candidate int) (int, error) {
	if _, err := reg.Manifest(candidate); err != nil {
		return 0, err
	}
	pinned, err := reg.Pinned()
	if err != nil {
		return 0, err
	}
	if pinned > 0 {
		if pinned == candidate {
			return 0, fmt.Errorf("cluster: candidate v%d is already pinned", candidate)
		}
		return pinned, nil
	}
	versions, err := reg.Versions()
	if err != nil {
		return 0, err
	}
	prev := 0
	for _, v := range versions {
		if v < candidate && v > prev {
			prev = v
		}
	}
	if prev == 0 {
		return 0, fmt.Errorf("cluster: no previous generation below candidate v%d", candidate)
	}
	return prev, nil
}
