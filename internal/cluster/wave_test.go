package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasq/internal/autopilot"
	"tasq/internal/registry"
)

// waveFixture is fleetFixture plus a second published generation the
// fleet has not synced onto — the wave's candidate.
func waveFixture(t *testing.T, n int) (*Fleet, *registry.Registry, int) {
	t.Helper()
	f, reg, _ := fleetFixture(t, n)
	p2, _ := trainPipeline(t, 53)
	cand, err := reg.PublishPipeline(p2, registry.Manifest{Notes: "fleet v2 candidate"})
	if err != nil {
		t.Fatalf("publish candidate: %v", err)
	}
	return f, reg, cand
}

// fastMachine decides quickly: 4 comparison samples, a 5-sample guard
// window with a 2-sample spike minimum.
func fastMachine() autopilot.MachineConfig {
	return autopilot.MachineConfig{
		PromoteMinN: 4, PromoteDelta: 0.02, GuardrailWindow: 5,
		GuardAlpha: 0.5, GuardMinSamples: 2,
	}
}

func syncers(f *Fleet) []Syncer {
	out := make([]Syncer, 0, f.Size())
	for _, r := range f.Replicas() {
		out = append(out, r)
	}
	return out
}

func betterCandidate(int) (float64, float64) { return 0.01, 0.10 }
func worseCandidate(int) (float64, float64)  { return 0.20, 0.10 }
func quietGuard(int) float64                 { return 0.01 }
func spikingGuard(int) float64               { return 5.0 }

func TestWavePromoteGuardPass(t *testing.T) {
	f, reg, cand := waveFixture(t, 3)
	var events []string
	cfg := WaveConfig{
		Machine: fastMachine(),
		OnEvent: func(ev, detail string) {
			events = append(events, ev+":"+detail)
			if ev == "canary" {
				// At canary time only r0 shadows the candidate; the rest
				// of the fleet has never seen it.
				if got := f.Replica(0).ShadowVersion(); got != cand {
					t.Errorf("canary shadow v%d, want v%d", got, cand)
				}
				if got := f.Replica(0).ActiveVersion(); got != 1 {
					t.Errorf("canary active v%d during shadow, want v1", got)
				}
				if got := f.Replica(1).ShadowVersion(); got != 0 {
					t.Errorf("non-canary shadows v%d before promotion", got)
				}
			}
		},
	}
	res, err := RunWave(reg, syncers(f), cand, betterCandidate, quietGuard, cfg)
	if err != nil {
		t.Fatalf("wave: %v", err)
	}
	if res.Outcome != registry.WaveStateComplete || !res.Promoted() {
		t.Fatalf("outcome %q, want complete", res.Outcome)
	}
	if res.Previous != 1 || res.Candidate != cand {
		t.Fatalf("wave versions %d -> %d, want 1 -> %d", res.Previous, res.Candidate, cand)
	}
	if res.Samples != 4 {
		t.Fatalf("decision after %d samples, want exactly 4", res.Samples)
	}
	if got := fmt.Sprint(res.Adopted); got != "[r0 r1 r2]" {
		t.Fatalf("adopted %s, want [r0 r1 r2]", got)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("skipped %v, want none", res.Skipped)
	}
	wantEvents := "canary:r0 promote:v2 adopt:r0 adopt:r1 adopt:r2 guard-pass:v2"
	if got := strings.Join(events, " "); got != wantEvents {
		t.Fatalf("events:\n got %s\nwant %s", got, wantEvents)
	}

	for _, r := range f.Replicas() {
		if got := r.ActiveVersion(); got != cand {
			t.Fatalf("replica %s active v%d after wave, want v%d", r.ID(), got, cand)
		}
		if got := r.ShadowVersion(); got != 0 {
			t.Fatalf("replica %s still shadows v%d after wave", r.ID(), got)
		}
	}
	if pinned, _ := reg.Pinned(); pinned != cand {
		t.Fatalf("pinned v%d, want v%d", pinned, cand)
	}
	// A completed wave settles its promotion as the autopilot's guard
	// pass does: the record is gone, so GC may collect v1 again.
	if rec, err := reg.Promotion(); !errors.Is(err, registry.ErrNoPromotion) {
		t.Fatalf("promotion record %+v (%v) after a complete wave, want ErrNoPromotion", rec, err)
	}
	st, err := reg.WaveStatus(cand)
	if err != nil {
		t.Fatalf("wave status: %v", err)
	}
	if st.State != registry.WaveStateComplete || st.Canary != "r0" ||
		fmt.Sprint(st.Adopted) != "[r0 r1 r2]" {
		t.Fatalf("wave status %+v", st)
	}
}

func TestWaveReject(t *testing.T) {
	f, reg, cand := waveFixture(t, 2)
	res, err := RunWave(reg, syncers(f), cand, worseCandidate, quietGuard, WaveConfig{Machine: fastMachine()})
	if err != nil {
		t.Fatalf("wave: %v", err)
	}
	if res.Outcome != registry.WaveStateRejected || res.Promoted() {
		t.Fatalf("outcome %q, want rejected", res.Outcome)
	}
	// The fleet stays frozen on the previous generation.
	if pinned, _ := reg.Pinned(); pinned != 1 {
		t.Fatalf("pinned v%d after reject, want v1", pinned)
	}
	for _, r := range f.Replicas() {
		if got := r.ActiveVersion(); got != 1 {
			t.Fatalf("replica %s active v%d after reject, want v1", r.ID(), got)
		}
	}
	st, err := reg.WaveStatus(cand)
	if err != nil {
		t.Fatalf("wave status: %v", err)
	}
	if st.State != registry.WaveStateRejected || len(st.Adopted) != 0 {
		t.Fatalf("wave status %+v", st)
	}
	if _, err := reg.Promotion(); err != registry.ErrNoPromotion {
		t.Fatalf("rejected wave wrote a promotion record: %v", err)
	}
}

func TestWaveRollback(t *testing.T) {
	f, reg, cand := waveFixture(t, 3)
	res, err := RunWave(reg, syncers(f), cand, betterCandidate, spikingGuard, WaveConfig{Machine: fastMachine()})
	if err != nil {
		t.Fatalf("wave: %v", err)
	}
	if res.Outcome != registry.WaveStateRolledBack || res.Promoted() {
		t.Fatalf("outcome %q, want rolled-back", res.Outcome)
	}
	if res.GuardSamples != 2 {
		t.Fatalf("rollback after %d guard samples, want 2 (the spike minimum)", res.GuardSamples)
	}
	// Everything is re-pinned and re-synced onto the previous generation.
	if pinned, _ := reg.Pinned(); pinned != 1 {
		t.Fatalf("pinned v%d after rollback, want v1", pinned)
	}
	for _, r := range f.Replicas() {
		if got := r.ActiveVersion(); got != 1 {
			t.Fatalf("replica %s active v%d after rollback, want v1", r.ID(), got)
		}
	}
	rec, err := reg.Promotion()
	if err != nil {
		t.Fatalf("promotion record: %v", err)
	}
	if !rec.RolledBack || rec.Version != cand || rec.Previous != 1 {
		t.Fatalf("promotion record %+v, want rolled back %d -> 1", rec, cand)
	}
	st, _ := reg.WaveStatus(cand)
	if st.State != registry.WaveStateRolledBack {
		t.Fatalf("wave state %q, want rolled-back", st.State)
	}
}

// TestWaveRollbackPinFailure: a rollback moves the pin first and marks
// the record after, as the autopilot's does, so a rollback whose pin
// cannot be written leaves the record saying promoted, never a record
// saying rolled back while the candidate is still pinned.
func TestWaveRollbackPinFailure(t *testing.T) {
	f, reg, cand := waveFixture(t, 2)
	pinFile := filepath.Join(reg.Root(), "PINNED")
	guard := func(n int) float64 {
		// After the promotion, a non-empty directory where the pin file
		// goes makes every later pin fail.
		if n == 0 {
			if err := os.Remove(pinFile); err != nil {
				t.Errorf("remove pin: %v", err)
			}
			if err := os.MkdirAll(filepath.Join(pinFile, "blocker"), 0o755); err != nil {
				t.Errorf("block pin: %v", err)
			}
		}
		return spikingGuard(n)
	}
	if _, err := RunWave(reg, syncers(f), cand, betterCandidate, guard, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("wave with an unwritable pin reported success")
	}
	rec, err := reg.Promotion()
	if err != nil {
		t.Fatalf("promotion record: %v", err)
	}
	if rec.RolledBack || rec.Version != cand || rec.Previous != 1 {
		t.Fatalf("promotion record %+v after a failed rollback pin, want v%d promoted over v1, unmarked", rec, cand)
	}
}

func TestWaveSkipsDeadMember(t *testing.T) {
	f, reg, cand := waveFixture(t, 3)
	if err := f.Replica(2).Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	res, err := RunWave(reg, syncers(f), cand, betterCandidate, quietGuard, WaveConfig{Machine: fastMachine()})
	if err != nil {
		t.Fatalf("wave: %v", err)
	}
	if res.Outcome != registry.WaveStateComplete {
		t.Fatalf("outcome %q, want complete", res.Outcome)
	}
	if fmt.Sprint(res.Adopted) != "[r0 r1]" || fmt.Sprint(res.Skipped) != "[r2]" {
		t.Fatalf("adopted %v skipped %v, want [r0 r1] / [r2]", res.Adopted, res.Skipped)
	}
	// The pin is registry state: the dead member adopts the promoted
	// generation the moment it restarts, no wave replay needed.
	if err := f.Replica(2).Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := f.Replica(2).ActiveVersion(); got != cand {
		t.Fatalf("restarted replica active v%d, want v%d", got, cand)
	}
}

func TestWaveInputValidation(t *testing.T) {
	f, reg, cand := waveFixture(t, 2)
	if _, err := RunWave(reg, nil, cand, betterCandidate, quietGuard, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("empty fleet should error")
	}
	if _, err := RunWave(reg, syncers(f), cand, nil, nil, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("missing oracles should error")
	}
	if _, err := RunWave(reg, syncers(f), 99, betterCandidate, quietGuard, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("unknown candidate should error")
	}
	// A machine config that means nothing is refused before the fleet is
	// pinned.
	if _, err := RunWave(reg, syncers(f), cand, betterCandidate, quietGuard, WaveConfig{}); err == nil {
		t.Fatal("zero machine config should error")
	}
	if pinned, _ := reg.Pinned(); pinned != 0 {
		t.Fatalf("refused wave pinned v%d", pinned)
	}
	// Pin the candidate itself: the wave must refuse (nothing to roll
	// back to).
	if err := reg.Pin(cand); err != nil {
		t.Fatalf("pin: %v", err)
	}
	if _, err := RunWave(reg, syncers(f), cand, betterCandidate, quietGuard, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("already-pinned candidate should error")
	}
	if err := reg.Unpin(); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	// A single-version registry has no previous generation to freeze.
	dir := t.TempDir()
	solo, err := registry.Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p, _ := trainPipeline(t, 51)
	v, err := solo.PublishPipeline(p, registry.Manifest{})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := RunWave(solo, syncers(f), v, betterCandidate, quietGuard, WaveConfig{Machine: fastMachine()}); err == nil {
		t.Fatal("wave without a previous generation should error")
	}
}
