package autopilot

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tasq/internal/drift"
	"tasq/internal/jobrepo"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// smallTrainConfig mirrors the harness' cheap training fixture.
// newAutopilot is New for a config the test knows is valid.
func newAutopilot(t *testing.T, reg *registry.Registry, win *Window, cfg Config) *Autopilot {
	t.Helper()
	ap, err := New(reg, win, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ap
}

func smallTrainConfig(seed int64) trainer.Config {
	cfg := trainer.DefaultConfig(seed)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	return cfg
}

// cycleResult captures everything a full-loop run produced, for
// assertions and for the same-seed reproducibility comparison.
type cycleResult struct {
	events   []string
	status   Status
	pinned   int
	promoErr error
}

// runFullCycle drives the complete learning loop deterministically, with
// no manual step: v1 serves a drifting workload → drift alarm → retrain
// publishes v2 → shadow sample accumulates → auto-promotion pins v2 → a
// harsher drift spike inside the guard window forces exactly one rollback
// to v1 → continued telemetry retrains v3 → v3 promotes and its guard
// window passes clean.
func runFullCycle(t *testing.T, seed int64) cycleResult {
	t.Helper()
	dir := t.TempDir()

	// Train and publish generation 1 on the undrifted workload.
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(40), &ex); err != nil {
		t.Fatal(err)
	}
	tcfg := smallTrainConfig(seed)
	p1, err := trainer.Train(repo.All(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PublishPipeline(p1, registry.Manifest{Notes: "seed generation"}); err != nil {
		t.Fatal(err)
	}

	win, err := OpenWindow(filepath.Join(dir, "registry", "telemetry", "window.jsonl"), 300)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()

	ap := newAutopilot(t, reg, win, Config{
		Drift: drift.Config{Alpha: 0.2, Threshold: 0.3, MinSamples: 8},
		Machine: MachineConfig{
			PromoteMinN: 12, PromoteDelta: 0.02, GuardrailWindow: 25,
			GuardAlpha: 0.5, GuardMinSamples: 3,
		},
		Train:             tcfg,
		RetrainMinRecords: 20,
		CooldownRecords:   15,
		QueueCap:          1024,
	})

	feed := func(max int, stop func(Status) bool) {
		t.Helper()
		for i := 0; i < max; i++ {
			j := g.Job()
			res, err := ex.Run(j, j.RequestedTokens)
			if err != nil {
				t.Fatal(err)
			}
			ap.Observe(&jobrepo.Record{
				Job:            j,
				ObservedTokens: j.RequestedTokens,
				RuntimeSeconds: res.RuntimeSeconds,
				Skyline:        res.Skyline,
			})
			if stop(ap.Status()) {
				return
			}
		}
	}
	dump := func(stage string) {
		t.Helper()
		for _, e := range ap.Events() {
			t.Logf("event: %s", e)
		}
		t.Fatalf("%s not reached: %+v", stage, ap.Status())
	}

	// Phase A: inputs grow ×4 — v1 drifts, the alarm fires, a retrain
	// publishes v2, the shadow sample accumulates, v2 wins promotion.
	if err := g.SetInputDrift(4); err != nil {
		t.Fatal(err)
	}
	feed(250, func(s Status) bool { return s.Promotions == 1 })
	if ap.Status().Promotions != 1 {
		dump("first promotion")
	}

	// Phase B: immediately inside v2's guard window the workload lurches
	// again (×16) — observed error spikes, the guardrail rolls back to v1.
	if err := g.SetInputDrift(16); err != nil {
		t.Fatal(err)
	}
	feed(120, func(s Status) bool { return s.Rollbacks == 1 })
	if ap.Status().Rollbacks != 1 {
		dump("guardrail rollback")
	}

	// Phase C: telemetry keeps flowing at ×16; the loop retrains on the
	// accumulated window, promotes v3, and this time the guard passes.
	feed(600, func(s Status) bool {
		return s.Promotions == 2 && s.Phase == PhaseSteady && s.PreviousVersion == 0
	})
	st := ap.Status()
	if !(st.Promotions == 2 && st.Phase == PhaseSteady && st.PreviousVersion == 0) {
		dump("recovery promotion + guard pass")
	}

	pinned, err := reg.Pinned()
	if err != nil {
		t.Fatal(err)
	}
	_, promoErr := reg.Promotion()
	return cycleResult{events: ap.Events(), status: st, pinned: pinned, promoErr: promoErr}
}

// TestAutopilotFullCycle is the issue's acceptance scenario, plus the
// same-seed reproducibility requirement: two identical runs must produce
// byte-identical event logs.
func TestAutopilotFullCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-loop cycle: skipped in -short")
	}
	a := runFullCycle(t, 77)

	st := a.status
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks %d, want exactly 1", st.Rollbacks)
	}
	if st.Promotions != 2 || st.Retrains < 2 {
		t.Fatalf("promotions %d retrains %d, want 2 and >= 2", st.Promotions, st.Retrains)
	}
	// The rolled-back generation is quarantined and never serving again.
	if len(st.Quarantined) == 0 {
		t.Fatal("rolled-back version not quarantined")
	}
	for _, q := range st.Quarantined {
		if q == st.ActiveVersion {
			t.Fatalf("quarantined v%d is active", q)
		}
	}
	// The final generation is auto-pinned and its guard window passed, so
	// the promotion record was cleared.
	if a.pinned != st.ActiveVersion || a.pinned == 1 {
		t.Fatalf("pinned v%d, active v%d (want a promoted generation)", a.pinned, st.ActiveVersion)
	}
	if !errors.Is(a.promoErr, registry.ErrNoPromotion) {
		t.Fatalf("promotion record after guard pass: %v, want cleared", a.promoErr)
	}

	// Reproducibility: an identical seeded run yields the identical log.
	b := runFullCycle(t, 77)
	if len(a.events) != len(b.events) {
		t.Fatalf("event logs differ in length: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d diverged:\n  run A: %s\n  run B: %s", i, a.events[i], b.events[i])
		}
	}
	if !reflect.DeepEqual(a.status, b.status) || a.pinned != b.pinned {
		t.Fatalf("final states diverged:\n  run A: %+v pinned v%d\n  run B: %+v pinned v%d",
			a.status, a.pinned, b.status, b.pinned)
	}
}

// waitProcessed blocks until the loop goroutine has handled n records.
func waitProcessed(t *testing.T, ap *Autopilot, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ap.Processed() < n {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d, want %d", ap.Processed(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAutopilotIngestBackpressure(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.QueueCap = 4
	ap := newAutopilot(t, reg, nil, cfg)
	recs := makeRecords(t, 29, 6)
	accepted, err := ap.IngestTelemetry(recs)
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4 (queue cap)", accepted)
	}
	if !errors.Is(err, serve.ErrTelemetryBackpressure) {
		t.Fatalf("error %v, want ErrTelemetryBackpressure", err)
	}
	// Draining the queue makes room again.
	ctx, cancel := context.WithCancel(context.Background())
	ap.Start(ctx)
	waitProcessed(t, ap, 4)
	accepted, err = ap.IngestTelemetry(recs[4:])
	if accepted != 2 || err != nil {
		t.Fatalf("post-drain ingest: %d, %v", accepted, err)
	}
	waitProcessed(t, ap, 6)
	cancel()
	ap.Wait()
	// The empty registry meant every bootstrap failed — but every record
	// was still processed and logged, not lost or wedged.
	if got := ap.Processed(); got != 6 {
		t.Fatalf("processed %d, want 6", got)
	}
	if len(ap.Events()) == 0 {
		t.Fatal("no bootstrap events recorded")
	}
}

// TestAutopilotBootstrapRetries: an unreachable model at startup is
// retried on the next observation instead of wedging the loop.
func TestAutopilotBootstrapRetries(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ap := newAutopilot(t, reg, nil, DefaultConfig(1))
	recs := makeRecords(t, 31, 42)
	ap.Observe(recs[0]) // registry empty: bootstrap fails
	if st := ap.Status(); st.ActiveVersion != 0 {
		t.Fatalf("active v%d with empty registry", st.ActiveVersion)
	}

	// Publish a model; the next observation bootstraps and pins it.
	p, err := trainer.Train(recs, smallTrainConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.PublishPipeline(p, registry.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	ap.Observe(recs[1])
	if st := ap.Status(); st.ActiveVersion != v {
		t.Fatalf("active v%d after publish, want v%d", st.ActiveVersion, v)
	}
	if pinned, _ := reg.Pinned(); pinned != v {
		t.Fatalf("pinned v%d, want v%d (pin-before-candidate invariant)", pinned, v)
	}
}

// TestAutopilotRespectsExistingPin: bootstrap follows an operator's pin
// instead of the newest version.
func TestAutopilotRespectsExistingPin(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 37, 42)
	p, err := trainer.Train(recs, smallTrainConfig(37))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := reg.PublishPipeline(p, registry.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PublishPipeline(p, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Pin(v1); err != nil {
		t.Fatal(err)
	}
	ap := newAutopilot(t, reg, nil, DefaultConfig(1))
	ap.Observe(recs[0])
	if st := ap.Status(); st.ActiveVersion != v1 {
		t.Fatalf("active v%d, want pinned v%d", st.ActiveVersion, v1)
	}
}

// TestAutopilotPromotionRecordBeforePin: the promotion record names the
// rollback target GC must keep, so a promotion whose record cannot be
// written must not move the pin.
func TestAutopilotPromotionRecordBeforePin(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 41, 42)
	p, err := trainer.Train(recs, smallTrainConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := reg.PublishPipeline(p, registry.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.PublishPipeline(p, registry.Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Pin(v1); err != nil {
		t.Fatal(err)
	}
	ap := newAutopilot(t, reg, nil, DefaultConfig(1))
	ap.Observe(recs[0])
	if st := ap.Status(); st.ActiveVersion != v1 {
		t.Fatalf("active v%d, want pinned v%d", st.ActiveVersion, v1)
	}
	// A directory where the record goes makes SetPromotion fail.
	if err := os.Mkdir(filepath.Join(dir, "PROMOTION"), 0o755); err != nil {
		t.Fatal(err)
	}
	ap.mu.Lock()
	ap.candVer, ap.candPipe = v2, p
	ap.promoteLocked()
	ap.mu.Unlock()

	if pinned, err := reg.Pinned(); err != nil || pinned != v1 {
		t.Fatalf("pinned v%d (%v) after a failed promotion record, want v%d", pinned, err, v1)
	}
	if st := ap.Status(); st.ActiveVersion != v1 || st.Promotions != 0 {
		t.Fatalf("active v%d after %d promotions, want v%d after none", st.ActiveVersion, st.Promotions, v1)
	}
}
