package harness

import (
	"reflect"
	"testing"
	"time"

	"tasq/internal/faults"
)

// apSoakProfile injects registry read faults into the learning loop —
// the sites the autopilot's bootstrap and sync paths actually cross —
// plus light scoring chaos for the concurrent workers.
func apSoakProfile() faults.Profile {
	return faults.Profile{
		LatencyRate:         0.10,
		Latency:             200 * time.Microsecond,
		ErrorRate:           0.10,
		RegistrySlowRate:    0.20,
		RegistrySlow:        500 * time.Microsecond,
		RegistryCorruptRate: 0.15,
	}
}

func apSoakConfig(t *testing.T, seed int64) AutopilotConfig {
	return AutopilotConfig{
		Seed:    seed,
		Dir:     t.TempDir(),
		Profile: apSoakProfile(),
		Short:   testing.Short(),
		Logf:    t.Logf,
	}
}

// TestAutopilotSoak drives the continuous-learning loop through drift and
// registry faults: the workload shifts mid-run, the loop retrains and
// auto-promotes, a harsher shift triggers exactly one guardrail rollback,
// and the recovery promotion sticks — RunAutopilot fails on any
// convergence or quarantine violation. In -short mode the scenario stops
// after the first promotion.
func TestAutopilotSoak(t *testing.T) {
	res, err := RunAutopilot(apSoakConfig(t, 77))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Status
	if testing.Short() {
		if st.Promotions != 1 || st.Retrains < 1 {
			t.Fatalf("short soak: promotions %d retrains %d, want 1 and >= 1", st.Promotions, st.Retrains)
		}
	} else {
		if st.Promotions != 2 || st.Rollbacks != 1 || st.Retrains < 2 {
			t.Fatalf("full soak: promotions %d rollbacks %d retrains %d, want 2/1/>=2",
				st.Promotions, st.Rollbacks, st.Retrains)
		}
		if len(st.Quarantined) == 0 {
			t.Fatal("rolled-back generation not quarantined")
		}
		if !res.PromotionCleared {
			t.Fatal("promotion record not cleared after the clean guard pass")
		}
	}
	if res.ServingVersion != res.Pinned || res.Pinned == 0 {
		t.Fatalf("serving v%d, pinned v%d — serving did not converge", res.ServingVersion, res.Pinned)
	}
	if res.ScoreAttempts == 0 {
		t.Fatal("scoring chaos never ran")
	}
	t.Logf("soak: %d events, %d score attempts, pinned v%d, fired %v",
		len(res.Events), res.ScoreAttempts, res.Pinned, res.FiredBySite)
}

// TestAutopilotSoakReproducible is the determinism acceptance criterion
// for the loop: two same-seed soaks — drift, faults, retrains, promotion,
// rollback and all — must produce byte-identical event logs and the same
// final state, even though scoring chaos interleaves differently.
func TestAutopilotSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cycle reproducibility: skipped in -short")
	}
	a, err := RunAutopilot(apSoakConfig(t, 77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAutopilot(apSoakConfig(t, 77))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged:\n  run A: %s\n  run B: %s", i, a.Events[i], b.Events[i])
		}
	}
	if !reflect.DeepEqual(a.Status, b.Status) || a.Pinned != b.Pinned {
		t.Fatalf("final states diverged:\n  run A: %+v pinned v%d\n  run B: %+v pinned v%d",
			a.Status, a.Pinned, b.Status, b.Pinned)
	}
	for _, res := range []*AutopilotResult{a, b} {
		checkSoakDigest(t, "autopilot seed=77", res.Events, res.Status, res.Pinned,
			res.ServingVersion, res.PromotionCleared)
	}
}
