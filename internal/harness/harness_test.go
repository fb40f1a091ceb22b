package harness

import (
	"testing"
	"time"

	"tasq/internal/faults"
)

// stormProfile is the fault mix used by the chaos tests: every site
// enabled at a rate that fires often but leaves room to succeed, with
// injected delays small enough to keep the runs fast.
func stormProfile() faults.Profile {
	return faults.Profile{
		LatencyRate:         0.20,
		Latency:             300 * time.Microsecond,
		ErrorRate:           0.15,
		BatchItemRate:       0.10,
		RegistrySlowRate:    0.25,
		RegistrySlow:        500 * time.Microsecond,
		RegistryCorruptRate: 0.25,
	}
}

// chaosConfig sizes a run for the CI budget: -short trims the storm but
// keeps every phase (storm, saturation, recovery, reconciliation).
func chaosConfig(t *testing.T, seed int64) Config {
	cfg := Config{
		Seed:    seed,
		Dir:     t.TempDir(),
		Profile: stormProfile(),
		Logf:    t.Logf,
	}
	if testing.Short() {
		cfg.Workers = 6
		cfg.OpsPerWorker = 15
	}
	return cfg
}

// TestChaosSoak is the tentpole scenario at three seeds: a full chaos run
// must complete with every invariant intact — Run itself fails on any
// malformed response, unreconciled counter, missed shed or failed
// recovery.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(string(rune('0'+seed%10))+"_seed", func(t *testing.T) {
			res, err := Run(chaosConfig(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.ByStatus[0] != 0 {
				t.Fatalf("%d transport errors against an in-process server", res.ByStatus[0])
			}
			if res.ByStatus[429] == 0 {
				t.Fatal("no 429 sheds recorded — the saturation phase must shed")
			}
			if res.Recovered == 0 {
				t.Fatal("no recovery scores recorded")
			}
			if res.ActiveVersion != 2 {
				t.Fatalf("settled on generation v%d, want v2", res.ActiveVersion)
			}
			if res.Attempts == 0 || res.BatchItemsOK == 0 {
				t.Fatalf("storm barely ran: %d attempts, %d batch items ok", res.Attempts, res.BatchItemsOK)
			}
			t.Logf("seed %d: %d attempts, statuses %v, %d/%d batch items, %d circuit-open, fired %v",
				seed, res.Attempts, res.ByStatus, res.BatchItemsOK, res.BatchItemsFailed, res.CircuitOpen, res.FiredBySite)
		})
	}
}

// TestChaosSameSeedReproducesSchedule is the determinism acceptance
// criterion: two full runs under the same seed produce the identical
// per-site fault schedule (and Run has already cross-checked each
// injector's actual firings against that schedule via Verify); a
// different seed produces a different one.
func TestChaosSameSeedReproducesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestChaosSoak's per-run Verify in short mode")
	}
	first, err := Run(chaosConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(chaosConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	for site, trace := range first.FaultTrace {
		if second.FaultTrace[site] != trace {
			t.Fatalf("site %s: same seed produced different schedules:\n%s\n%s",
				site, trace, second.FaultTrace[site])
		}
	}
	for _, res := range []*Result{first, second} {
		checkSoakDigest(t, "chaos seed=7", res.FaultTrace, res.ActiveVersion)
	}

	other, err := Run(chaosConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkSoakDigest(t, "chaos seed=8", other.FaultTrace, other.ActiveVersion)
	diverged := false
	for site, trace := range first.FaultTrace {
		if other.FaultTrace[site] != trace {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical fault schedules at every site")
	}
}
