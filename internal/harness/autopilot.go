// Autopilot soak: the chaos scenario for the continuous-learning loop.
// It boots the tasqd-equivalent autopilot stack (registry + window store
// + autopilot + serving layer) in-process, drives a seeded workload that
// drifts mid-run while registry read faults fire, and asserts the loop
// converges — drift alarm, retrain, shadow comparison, auto-promotion,
// one guardrail rollback — without a bad promotion sticking. Telemetry is
// posted from a single goroutine so the loop's observation sequence (and
// therefore its event log) is a pure function of the seed; concurrent
// scoring workers add interleaving chaos without touching that sequence.
package harness

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"tasq/internal/autopilot"
	"tasq/internal/drift"
	"tasq/internal/faults"
	"tasq/internal/jobrepo"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
)

// AutopilotConfig parameterizes one autopilot soak run.
type AutopilotConfig struct {
	// Seed fixes the workload, the retrains and the fault schedule.
	Seed int64
	// Dir is the registry root (a fresh temp dir per run).
	Dir string
	// Profile is the fault mix injected mid-loop (registry sites matter
	// most here: they hit the autopilot's bootstrap and the sync path).
	Profile faults.Profile
	// Short trims the scenario to phase A (drift → retrain → promote),
	// for -short CI runs. The full run adds the guardrail rollback and
	// the recovery promotion.
	Short bool
	// Logf receives progress lines (optional).
	Logf func(format string, args ...any)
}

// AutopilotResult is what a soak run observed; Events and Status are the
// same-seed reproducibility artifacts.
type AutopilotResult struct {
	// Events is the autopilot's deterministic event log.
	Events []string
	// Status is the loop's final snapshot.
	Status autopilot.Status
	// Pinned is the registry pin after convergence.
	Pinned int
	// ServingVersion is the generation the HTTP layer serves after the
	// storm cleared and the final sync ran.
	ServingVersion int
	// PromotionCleared reports whether the promotion record was released
	// (full runs end on a clean guard pass, so it must be).
	PromotionCleared bool
	// ScoreAttempts counts the chaos workers' scoring calls.
	ScoreAttempts int64
	// FiredBySite snapshots the injector's per-site firings.
	FiredBySite map[string]faults.SiteStats
}

// apSoakWindowCap bounds the soak's retraining window; apSoakScoreWorkers
// sizes the concurrent scoring chaos.
const (
	apSoakWindowCap    = 300
	apSoakScoreWorkers = 4
)

// RunAutopilot executes one autopilot soak scenario end to end. Any
// invariant violation surfaces as an error.
func RunAutopilot(cfg AutopilotConfig) (*AutopilotResult, error) {
	logf := quiet(cfg.Logf)

	// ---- Boot (faults disabled): registry, v1, window, autopilot. ----
	p1, recs, g, err := quickTrain(cfg.Seed, 40)
	if err != nil {
		return nil, err
	}
	reg, err := openRegistry(cfg.Dir, p1, "soak seed generation")
	if err != nil {
		return nil, err
	}

	inj := faults.New(cfg.Seed, cfg.Profile)
	inj.SetEnabled(false) // quiet during setup; the storm enables it
	reg.SetReadHook(inj.RegistryRead)
	defer reg.SetReadHook(nil)

	win, err := autopilot.OpenWindow(filepath.Join(cfg.Dir, "telemetry", "window.jsonl"), apSoakWindowCap)
	if err != nil {
		return nil, err
	}
	defer win.Close()
	ap, err := autopilot.New(reg, win, autopilot.Config{
		Drift: drift.Config{Alpha: 0.2, Threshold: 0.3, MinSamples: 8},
		Machine: autopilot.MachineConfig{
			PromoteMinN: 12, PromoteDelta: 0.02, GuardrailWindow: 25,
			GuardAlpha: 0.5, GuardMinSamples: 3,
		},
		Train:             quickTrainConfig(cfg.Seed),
		RetrainMinRecords: 20,
		CooldownRecords:   15,
		QueueCap:          64,
		Logf:              logf,
	})
	if err != nil {
		return nil, err
	}

	// The serving stack around it: telemetry flows through the HTTP
	// endpoint, and loop decisions reach serving through SyncFn only (the
	// poll interval is effectively infinite).
	srv, rl, ts, err := serveRegistry(reg, time.Hour, logf, serve.WithTelemetry(ap))
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	ap.SyncFn = rl.Sync
	ap.BindMetrics(srv.Registry())
	apCtx, stopAp := context.WithCancel(context.Background())
	ap.Start(apCtx)
	defer func() {
		stopAp()
		ap.Wait()
	}()

	errs := &firstErr{}

	// ---- Concurrent scoring chaos: interleaving pressure on the hot
	// path while generations swap underneath. Allowed failures only.
	led := newLedger()
	stopScore := make(chan struct{})
	scoreDone := fanOut(apSoakScoreWorkers, func(w int) {
		rng := workerRNG(cfg.Seed, w)
		client := serve.NewClient(ts.URL)
		client.OnAttempt = led.hook("")
		for {
			select {
			case <-stopScore:
				return
			default:
			}
			job := recs[rng.Intn(len(recs))].Job
			_, err := client.Score(context.Background(), &serve.ScoreRequest{Job: job})
			if err != nil && !allowed(err, http.StatusTooManyRequests,
				http.StatusInternalServerError, http.StatusServiceUnavailable,
				http.StatusGatewayTimeout) {
				errs.set(fmt.Errorf("scoring under autopilot churn: %w", err))
			}
			time.Sleep(time.Duration(200+rng.Intn(500)) * time.Microsecond)
		}
	})

	// ---- Single-goroutine telemetry driver: the loop's only input. ----
	tclient := serve.NewClient(ts.URL)
	var sent int64
	post := func(rec *jobrepo.Record) error {
		for {
			out, err := tclient.Telemetry(context.Background(), &serve.TelemetryRequest{Records: []*jobrepo.Record{rec}})
			if allowed(err, http.StatusTooManyRequests) {
				time.Sleep(time.Millisecond) // shed by the gate or the queue: try again
				continue
			}
			if err != nil {
				return fmt.Errorf("telemetry post: %w", err)
			}
			if out.Accepted != 1 {
				return fmt.Errorf("telemetry record rejected: %+v", out)
			}
			sent++
			break
		}
		// Quiesce: the loop has folded everything we sent, so the next
		// Status read (and the next record) sees a settled state — which
		// is what pins the event log to the record sequence.
		for deadline := time.Now().Add(10 * time.Second); ap.Processed() < sent; {
			if time.Now().After(deadline) {
				return fmt.Errorf("autopilot wedged: processed %d of %d", ap.Processed(), sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	feed := func(max int, stop func(autopilot.Status) bool) (bool, error) {
		for i := 0; i < max; i++ {
			j := g.Job()
			res, err := (&scopesim.Executor{}).Run(j, j.RequestedTokens)
			if err != nil {
				return false, err
			}
			if err := post(&jobrepo.Record{
				Job:            j,
				ObservedTokens: j.RequestedTokens,
				RuntimeSeconds: res.RuntimeSeconds,
				Skyline:        res.Skyline,
			}); err != nil {
				return false, err
			}
			if stop(ap.Status()) {
				return true, nil
			}
		}
		return stop(ap.Status()), nil
	}

	// ---- Storm: faults on, workload drifts. ----
	inj.SetEnabled(true)
	logf("harness: autopilot soak start (seed=%d short=%v)", cfg.Seed, cfg.Short)

	// Phase A: inputs grow ×4 — drift alarm, retrain, shadow win, promote.
	if err := g.SetInputDrift(4); err != nil {
		return nil, err
	}
	ok, err := feed(250, func(s autopilot.Status) bool { return s.Promotions == 1 })
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("phase A: no promotion after drift: %+v", ap.Status())
	}
	if !cfg.Short {
		// Phase B: a ×16 lurch inside the guard window — exactly one
		// rollback to the seed generation.
		if err := g.SetInputDrift(16); err != nil {
			return nil, err
		}
		if ok, err = feed(120, func(s autopilot.Status) bool { return s.Rollbacks == 1 }); err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("phase B: no guardrail rollback: %+v", ap.Status())
		}
		// Phase C: the loop retrains on the new regime, promotes again,
		// and this time the guard window passes clean.
		if ok, err = feed(600, func(s autopilot.Status) bool {
			return s.Promotions == 2 && s.Phase == autopilot.PhaseSteady && s.PreviousVersion == 0
		}); err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("phase C: no recovery promotion: %+v", ap.Status())
		}
	}

	close(stopScore)
	scoreDone()
	inj.SetEnabled(false)

	// ---- Convergence: storm cleared, serving settles on the pin. ----
	if err := rl.Sync(); err != nil {
		return nil, fmt.Errorf("post-storm sync: %w", err)
	}
	pinned, err := reg.Pinned()
	if err != nil {
		return nil, err
	}
	st := ap.Status()
	if pinned == 0 || pinned != st.ActiveVersion {
		return nil, fmt.Errorf("loop active v%d but registry pins v%d", st.ActiveVersion, pinned)
	}
	if srv.ActiveVersion() != pinned {
		return nil, fmt.Errorf("serving v%d after the storm, want pinned v%d", srv.ActiveVersion(), pinned)
	}
	// A bad promotion never sticks: nothing quarantined may be pinned or
	// serving, and the guardrail fired at most once.
	if slices.Contains(st.Quarantined, pinned) {
		return nil, fmt.Errorf("quarantined v%d is pinned — a bad promotion stuck", pinned)
	}
	if st.Rollbacks > 1 {
		return nil, fmt.Errorf("guardrail rolled back %d times, want at most once", st.Rollbacks)
	}
	// Clean scoring against the converged generation.
	resp, err := serve.NewClient(ts.URL).Score(context.Background(), &serve.ScoreRequest{Job: recs[0].Job})
	if err != nil {
		return nil, fmt.Errorf("post-storm score: %w", err)
	}
	if resp.ModelVersion != pinned {
		return nil, fmt.Errorf("post-storm score served by v%d, want v%d", resp.ModelVersion, pinned)
	}
	// The fault schedule itself must replay (pure-schedule cross-check).
	if err := inj.Verify(); err != nil {
		return nil, err
	}
	if err := errs.get(); err != nil {
		return nil, err
	}

	_, promoErr := reg.Promotion()
	return &AutopilotResult{
		Events:           ap.Events(),
		Status:           st,
		Pinned:           pinned,
		ServingVersion:   srv.ActiveVersion(),
		PromotionCleared: errors.Is(promoErr, registry.ErrNoPromotion),
		ScoreAttempts:    led.count(func(a attempt) bool { return a.route == "/v1/score" }),
		FiredBySite:      inj.Stats(),
	}, nil
}
