package harness

import (
	"testing"
)

// planSoakSeed is the canonical seed; the savings assertions below are
// calibrated against it (measured: ~97% saved vs Peak, ~12% vs AutoToken
// at both the -short and full scales).
const planSoakSeed = 1

// TestPlanSoak pushes the planner at scale — 1,000 plans × 1,000 jobs
// (one million simulated jobs) in full mode, trimmed under -short — and
// asserts the paper's cluster-level claim: Optimal allocation provisions
// far fewer token-seconds than the Peak-allocation baseline, measurably
// fewer than the AutoToken baseline, and never a worse makespan than
// Peak on the identical batch (per-plan, enforced inside RunPlanSoak).
func TestPlanSoak(t *testing.T) {
	cfg := PlanSoakConfig{Seed: planSoakSeed, Short: testing.Short(), Logf: t.Logf}
	res, err := RunPlanSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantPlans := 1000
	if testing.Short() {
		wantPlans = 60
	}
	if res.Plans != wantPlans || res.Jobs != wantPlans*1000 {
		t.Fatalf("soaked %d plans / %d jobs, want %d / %d", res.Plans, res.Jobs, wantPlans, wantPlans*1000)
	}
	if res.SavedVsPeakFraction < 0.5 {
		t.Fatalf("saved only %.1f%% vs the Peak baseline, want >= 50%%", res.SavedVsPeakFraction*100)
	}
	if res.SavedVsAutoFraction < 0.02 {
		t.Fatalf("saved only %.1f%% vs the AutoToken baseline, want a measurable >= 2%%", res.SavedVsAutoFraction*100)
	}
	if res.OptimalMakespanSeconds > res.PeakMakespanSeconds {
		t.Fatalf("optimal makespan %d exceeds peak %d: throughput regressed",
			res.OptimalMakespanSeconds, res.PeakMakespanSeconds)
	}
	if res.HTTPPlans < 1 {
		t.Fatal("no plan traveled the HTTP wire")
	}

	// Differential lanes: backfill must pack at least as well as FCFS in
	// aggregate (the per-plan ≤ inequalities are enforced inside
	// RunPlanSoak), and the retry lane must actually exercise overruns so
	// its closed-form accounting is tested against nonzero waste.
	if res.BackfillTokenSeconds > res.OptimalTokenSeconds {
		t.Fatalf("backfill cost %d exceeds FCFS %d", res.BackfillTokenSeconds, res.OptimalTokenSeconds)
	}
	if res.BackfillMakespanSeconds > res.OptimalMakespanSeconds {
		t.Fatalf("backfill makespan %d exceeds FCFS %d", res.BackfillMakespanSeconds, res.OptimalMakespanSeconds)
	}
	if res.Retries == 0 || res.RetryWasteTokenSeconds == 0 {
		t.Fatalf("retry lane never overran (%d retries, %d waste): the two-attempt path went untested",
			res.Retries, res.RetryWasteTokenSeconds)
	}
	if res.RetryTokenSeconds < res.OptimalTokenSeconds+res.RetryWasteTokenSeconds {
		t.Fatalf("retry cost %d below first slices %d + waste %d",
			res.RetryTokenSeconds, res.OptimalTokenSeconds, res.RetryWasteTokenSeconds)
	}
	t.Logf("plan soak: %d jobs, saved %.1f%% vs Peak, %.1f%% vs AutoToken, makespan %d vs %d, "+
		"backfill makespan %d (%d fallbacks), %d retries, fingerprint %016x",
		res.Jobs, res.SavedVsPeakFraction*100, res.SavedVsAutoFraction*100,
		res.OptimalMakespanSeconds, res.PeakMakespanSeconds,
		res.BackfillMakespanSeconds, res.BackfillFellBack, res.Retries, res.Fingerprint)
}

// TestPlanSoakReproducible runs the soak twice with the same seed and
// demands event-for-event agreement — identical fingerprints and totals —
// then flips the seed and demands the fingerprint moves.
func TestPlanSoakReproducible(t *testing.T) {
	cfg := PlanSoakConfig{Seed: planSoakSeed, Short: true, Workers: 4}
	a, err := RunPlanSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2 // worker count must not leak into the outcome
	b, err := RunPlanSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed fingerprints diverge: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if a.OptimalTokenSeconds != b.OptimalTokenSeconds ||
		a.PeakTokenSeconds != b.PeakTokenSeconds ||
		a.AutoTokenSeconds != b.AutoTokenSeconds ||
		a.OptimalMakespanSeconds != b.OptimalMakespanSeconds ||
		a.BackfillTokenSeconds != b.BackfillTokenSeconds ||
		a.RetryTokenSeconds != b.RetryTokenSeconds ||
		a.Retries != b.Retries {
		t.Fatalf("same-seed totals diverge:\n%+v\n%+v", a, b)
	}
	for _, res := range []*PlanSoakResult{a, b} {
		checkSoakDigest(t, "plan seed=1 plans=60", *res)
	}

	other, err := RunPlanSoak(PlanSoakConfig{Seed: planSoakSeed + 1, Short: true, Plans: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkSoakDigest(t, "plan seed=2 plans=10", *other)
	if other.Fingerprint == a.Fingerprint {
		t.Fatalf("different seeds produced the same fingerprint %016x", a.Fingerprint)
	}
}
