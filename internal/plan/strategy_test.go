package plan

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tasq/internal/pcc"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"":           StrategyFCFS,
		"fcfs":       StrategyFCFS,
		"FCFS":       StrategyFCFS,
		" fcfs ":     StrategyFCFS,
		"backfill":   StrategyBackfill,
		"Backfill":   StrategyBackfill,
		"\tBACKFILL": StrategyBackfill,
		"retry":      StrategyRetry,
		"Retry\n":    StrategyRetry,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"lifo", "back fill", "fcfs retry", "retry!"} {
		if _, err := ParseStrategy(bad); !errors.Is(err, ErrBadStrategy) {
			t.Fatalf("ParseStrategy(%q): %v, want ErrBadStrategy", bad, err)
		}
	}
	// Round trip: every strategy's wire name parses back to itself.
	for _, s := range []Strategy{StrategyFCFS, StrategyBackfill, StrategyRetry} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v, %v", s, got, err)
		}
	}
}

func TestRetryDemand(t *testing.T) {
	if got := RetryDemand(1, "job", 0); got != 0 {
		t.Fatalf("peakless demand %d, want 0", got)
	}
	if got := RetryDemand(1, "job", -5); got != 0 {
		t.Fatalf("negative peak demand %d, want 0", got)
	}
	// Deterministic, and always inside [1, peak].
	for _, peak := range []int{1, 2, 7, 100} {
		for _, id := range []string{"", "a", "job-17", "job-18"} {
			d := RetryDemand(42, id, peak)
			if d < 1 || d > peak {
				t.Fatalf("RetryDemand(42, %q, %d) = %d outside [1, %d]", id, peak, d, peak)
			}
			if again := RetryDemand(42, id, peak); again != d {
				t.Fatalf("RetryDemand not deterministic: %d then %d", d, again)
			}
		}
	}
	// The seed and the ID must both matter (with a wide peak collisions
	// would mark a broken mix, not bad luck).
	if RetryDemand(1, "job", 1<<20) == RetryDemand(2, "job", 1<<20) {
		t.Fatal("seed does not perturb the demand draw")
	}
	if RetryDemand(1, "job-a", 1<<20) == RetryDemand(1, "job-b", 1<<20) {
		t.Fatal("job ID does not perturb the demand draw")
	}
}

// TestSimulateBackfillDoesBackfill mirrors TestSimulateFCFSNoBackfilling:
// the same batch where FCFS makes the small later arrival queue behind the
// blocked big one must let it jump ahead under backfill.
func TestSimulateBackfillDoesBackfill(t *testing.T) {
	// One token stays free while "running" holds nine: FCFS leaves the
	// gap empty behind the blocked ten-token job, backfill fills it.
	allocs := []Allocation{
		{ID: "running", ArrivalSecond: 0, Tokens: 9, DurationSeconds: 10},
		{ID: "blocked-big", ArrivalSecond: 1, Tokens: 10, DurationSeconds: 1},
		{ID: "small-later", ArrivalSecond: 2, Tokens: 1, DurationSeconds: 1},
	}
	outs, err := SimulateBackfill(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[2].StartSecond != 2 {
		t.Fatalf("small job started %d, want backfilled at its arrival 2", outs[2].StartSecond)
	}
	if outs[1].StartSecond != 10 {
		t.Fatalf("big job started %d, want 10", outs[1].StartSecond)
	}
	// FCFS on the same batch refuses the jump.
	fcfs, err := SimulateFCFSQuota(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs[2].StartSecond < fcfs[1].StartSecond {
		t.Fatal("FCFS backfilled")
	}
}

// TestSimulateBackfillDeadlineFirst pins the packing order: deadline
// holders are scanned before wider non-deadline jobs.
func TestSimulateBackfillDeadlineFirst(t *testing.T) {
	allocs := []Allocation{
		{ID: "wide", ArrivalSecond: 0, Tokens: 8, DurationSeconds: 5},
		{ID: "sla", ArrivalSecond: 0, Tokens: 8, DurationSeconds: 2, DeadlineSecond: 2},
	}
	outs, err := SimulateBackfill(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].StartSecond != 0 || outs[1].EndSecond != 2 {
		t.Fatalf("SLA job ran [%d,%d), want [0,2) ahead of the wide job", outs[1].StartSecond, outs[1].EndSecond)
	}
	if outs[0].StartSecond != 2 {
		t.Fatalf("wide job started %d, want 2", outs[0].StartSecond)
	}
}

// TestSimulateBackfillQuota: a tenant at its quota cannot backfill even
// when the pool has room.
func TestSimulateBackfillQuota(t *testing.T) {
	quota := Quota{"acme": 5}
	allocs := []Allocation{
		{ID: "a1", ArrivalSecond: 0, Tokens: 5, DurationSeconds: 4, Tenant: "acme"},
		{ID: "a2", ArrivalSecond: 0, Tokens: 3, DurationSeconds: 1, Tenant: "acme"},
		{ID: "b1", ArrivalSecond: 0, Tokens: 3, DurationSeconds: 1, Tenant: "other"},
	}
	outs, err := SimulateBackfill(20, quota, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[2].StartSecond != 0 {
		t.Fatalf("unconstrained tenant started %d, want 0", outs[2].StartSecond)
	}
	if outs[1].StartSecond != 4 {
		t.Fatalf("quota-bound job started %d, want 4 (after its tenant's first job drained)", outs[1].StartSecond)
	}
	if err := ValidateSchedule(20, quota, allocs, outs); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateRetryTwoAttempts pins the retry mechanics: the overrun leg
// re-queues at the first slice's predicted end, fresh same-second
// arrivals win the tie, and both waits accumulate.
func TestSimulateRetryTwoAttempts(t *testing.T) {
	allocs := []Allocation{
		{ID: "overruns", ArrivalSecond: 0, Tokens: 2, DurationSeconds: 3, RetryTokens: 10, RetryDurationSeconds: 1},
		{ID: "fresh", ArrivalSecond: 3, Tokens: 2, DurationSeconds: 1},
	}
	outs, err := SimulateRetry(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Outcome{
		// First slice [0,3); the peak leg needs the whole pool, so it
		// waits for the same-second fresh arrival to drain: [4,5).
		{ID: "overruns", StartSecond: 0, WaitSeconds: 1, EndSecond: 5, RetryStartSecond: 4},
		{ID: "fresh", StartSecond: 3, WaitSeconds: 0, EndSecond: 4},
	}
	if !reflect.DeepEqual(outs, want) {
		t.Fatalf("retry schedule %+v, want %+v", outs, want)
	}
	st := Summarize(allocs, outs)
	if st.Retries != 1 {
		t.Fatalf("retries %d, want 1", st.Retries)
	}
	if wantWaste := 2 * 3; st.RetryWasteTokenSeconds != wantWaste {
		t.Fatalf("waste %d, want the failed first slice %d", st.RetryWasteTokenSeconds, wantWaste)
	}
	if wantTotal := 2*3 + 10*1 + 2*1; st.TotalTokenSeconds != wantTotal {
		t.Fatalf("total %d, want both attempts accounted: %d", st.TotalTokenSeconds, wantTotal)
	}
	if err := ValidateSchedule(10, nil, allocs, outs); err != nil {
		t.Fatal(err)
	}
}

// TestBackfillFallback pins the no-regression guard: when the packed
// schedule would miss a feasible deadline the FCFS schedule met, the
// plan keeps FCFS and reports the fallback.
func TestBackfillFallback(t *testing.T) {
	// FCFS: runner [0,5), then sla [5,6) — meets its deadline 7 — then
	// filler [6,106). Packed: the filler backfills at t=1 and pins 4
	// tokens for 100s, so the 10-token sla job cannot start until 101.
	allocs := []Allocation{
		{ID: "runner", ArrivalSecond: 0, Tokens: 6, DurationSeconds: 5},
		{ID: "sla", ArrivalSecond: 1, Tokens: 10, DurationSeconds: 1, DeadlineSecond: 7},
		{ID: "filler", ArrivalSecond: 1, Tokens: 4, DurationSeconds: 100},
	}
	fcfs, err := SimulateFCFSQuota(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := SimulateBackfill(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs[1].EndSecond > 7 {
		t.Fatalf("FCFS missed the deadline (%d): bad fixture", fcfs[1].EndSecond)
	}
	if packed[1].EndSecond <= 7 {
		t.Fatalf("packed met the deadline (%d): bad fixture", packed[1].EndSecond)
	}
	if !backfillRegressed(allocs, fcfs, packed) {
		t.Fatal("deadline regression not detected")
	}

	// Through Build: constant-runtime curves (A=0) reproduce the batch.
	specs := []JobSpec{
		{ID: "runner", ArrivalSecond: 0, RequestedTokens: 6, Curve: pcc.Curve{A: 0, B: 5}},
		{ID: "sla", ArrivalSecond: 1, RequestedTokens: 10, DeadlineSecond: 7, Curve: pcc.Curve{A: 0, B: 1}},
		{ID: "filler", ArrivalSecond: 1, RequestedTokens: 4, Curve: pcc.Curve{A: 0, B: 100}},
	}
	p, err := Build(specs, Config{Capacity: 10, Policy: PolicyDefault, Strategy: StrategyBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FellBack {
		t.Fatal("Build kept a deadline-missing packed schedule")
	}
	if !reflect.DeepEqual(p.Outcomes, fcfs) {
		t.Fatalf("fallback outcomes %+v, want the FCFS schedule %+v", p.Outcomes, fcfs)
	}
	if p.Stats.DeadlineViolations != 0 {
		t.Fatalf("fallback plan violates %d deadlines", p.Stats.DeadlineViolations)
	}
}

// TestBuildStrategies pins strategy plumbing through Build: the enum is
// validated, the strategy is echoed, and retry plans mark exactly the
// jobs whose simulated demand exceeds their first slice.
func TestBuildStrategies(t *testing.T) {
	specs := planSpecs(8)
	if _, err := Build(specs, Config{Capacity: 100, Policy: PolicyOptimal, Strategy: Strategy(9)}); !errors.Is(err, ErrBadStrategy) {
		t.Fatalf("bad strategy enum: %v", err)
	}

	cfg := Config{Capacity: 100, Policy: PolicyOptimal, Strategy: StrategyRetry, RetrySeed: 7}
	p, err := Build(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != StrategyRetry {
		t.Fatalf("plan strategy %v, want retry", p.Strategy)
	}
	retries := 0
	for i, a := range p.Allocations {
		sp := specs[i]
		need := RetryDemand(cfg.RetrySeed, sp.ID, sp.PeakTokens)
		wantRetry := need > 0 && clamp(need, 1, cfg.Capacity) > a.Tokens
		if a.retries() != wantRetry {
			t.Fatalf("job %s retry=%v, want %v (demand %d vs slice %d)", a.ID, a.retries(), wantRetry, need, a.Tokens)
		}
		if a.retries() {
			retries++
			if a.RetryTokens != clamp(sp.PeakTokens, 1, cfg.Capacity) {
				t.Fatalf("job %s retry leg %d tokens, want peak %d", a.ID, a.RetryTokens, sp.PeakTokens)
			}
		}
	}
	if p.Stats.Retries != retries {
		t.Fatalf("stats count %d retries, want %d", p.Stats.Retries, retries)
	}
	// Peak allocation leaves nothing to retry up to: no overruns.
	peak, err := Build(specs, Config{Capacity: 100, Policy: PolicyPeak, Strategy: StrategyRetry, RetrySeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Stats.Retries != 0 {
		t.Fatalf("peak-allocated retry plan overran %d times", peak.Stats.Retries)
	}
}

// TestBuildQuotaClamp: a quoted tenant's allocation is clamped into its
// quota so the plan stays feasible, and bad quotas are rejected.
func TestBuildQuotaClamp(t *testing.T) {
	specs := []JobSpec{{ID: "q", RequestedTokens: 80, PeakTokens: 60, Tenant: "acme", Curve: planCurve()}}
	p, err := Build(specs, Config{Capacity: 100, Policy: PolicyDefault, Quota: Quota{"acme": 12}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Allocations[0].Tokens != 12 {
		t.Fatalf("quoted allocation %d tokens, want clamped to quota 12", p.Allocations[0].Tokens)
	}
	if _, err := Build(specs, Config{Capacity: 100, Policy: PolicyDefault, Quota: Quota{"acme": 0}}); !errors.Is(err, ErrBadQuota) {
		t.Fatalf("zero quota: %v", err)
	}
}

// TestBuildArrivalGuards pins the ErrBadArrival contract for non-finite
// and negative arrivals.
func TestBuildArrivalGuards(t *testing.T) {
	for name, bad := range map[string]float64{
		"NaN":  math.NaN(),
		"+Inf": math.Inf(1),
		"-Inf": math.Inf(-1),
		"neg":  -0.5,
	} {
		specs := planSpecs(2)
		specs[1].ArrivalSecond = bad
		_, err := Build(specs, Config{Capacity: 100, Policy: PolicyOptimal})
		if !errors.Is(err, ErrBadArrival) {
			t.Fatalf("%s arrival: %v, want ErrBadArrival", name, err)
		}
	}
	// Fractional arrivals floor to their containing second.
	frac := planSpecs(1)
	frac[0].ArrivalSecond = 3.9
	p, err := Build(frac, Config{Capacity: 100, Policy: PolicyOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if p.Allocations[0].ArrivalSecond != 3 {
		t.Fatalf("arrival 3.9 floored to %d, want 3", p.Allocations[0].ArrivalSecond)
	}
	// Bad deadlines get their own error.
	late := planSpecs(1)
	late[0].DeadlineSecond = -1
	if _, err := Build(late, Config{Capacity: 100, Policy: PolicyOptimal}); !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("negative deadline: %v", err)
	}
}
