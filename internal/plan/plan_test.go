package plan

import (
	"errors"
	"reflect"
	"testing"

	"tasq/internal/pcc"
	"tasq/internal/skyline"
)

func TestPoolLedger(t *testing.T) {
	if _, err := NewPoolQuota(0, nil); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero capacity: %v", err)
	}
	p, err := NewPoolQuota(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 10 || p.Free() != 10 || p.InUse() != 0 {
		t.Fatalf("fresh pool: cap=%d free=%d used=%d", p.Capacity(), p.Free(), p.InUse())
	}
	if err := p.AcquireTenant("", 4); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 6 || p.InUse() != 4 {
		t.Fatalf("after acquire: free=%d used=%d", p.Free(), p.InUse())
	}
	if err := p.AcquireTenant("", 7); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("over-acquire: %v", err)
	}
	if p.Free() != 6 {
		t.Fatal("failed acquire must not claim tokens")
	}
	if got := p.AcquireUpTo(100); got != 6 {
		t.Fatalf("AcquireUpTo granted %d, want 6", got)
	}
	if got := p.AcquireUpTo(1); got != 0 {
		t.Fatalf("empty pool granted %d", got)
	}
	if got := p.AcquireUpTo(-3); got != 0 {
		t.Fatalf("negative want granted %d", got)
	}
	if err := p.ReleaseTenant("", 11); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("over-release: %v", err)
	}
	if err := p.ReleaseTenant("", 10); err != nil {
		t.Fatal(err)
	}
	if !p.Fits(10) || p.Fits(11) || p.Fits(0) {
		t.Fatal("Fits wrong after full release")
	}
}

func TestSimulateFCFSZeroCapacityPool(t *testing.T) {
	_, err := SimulateFCFSQuota(0, nil, []Allocation{{ID: "a", Tokens: 1, DurationSeconds: 1}})
	if !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero-capacity pool: %v", err)
	}
	if _, err := SimulateFCFSQuota(-5, nil, nil); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("negative-capacity pool: %v", err)
	}
}

func TestSimulateFCFSJobLargerThanPool(t *testing.T) {
	_, err := SimulateFCFSQuota(10, nil, []Allocation{{ID: "big", Tokens: 20, DurationSeconds: 1}})
	if !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("oversize request: %v", err)
	}
}

func TestSimulateFCFSEqualArrivalTieBreaking(t *testing.T) {
	// Three same-second arrivals on a pool that serializes them: FCFS
	// ties break by input order, every time.
	allocs := []Allocation{
		{ID: "first", ArrivalSecond: 5, Tokens: 8, DurationSeconds: 3},
		{ID: "second", ArrivalSecond: 5, Tokens: 8, DurationSeconds: 3},
		{ID: "third", ArrivalSecond: 5, Tokens: 8, DurationSeconds: 3},
	}
	outs, err := SimulateFCFSQuota(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Outcome{
		{ID: "first", StartSecond: 5, WaitSeconds: 0, EndSecond: 8},
		{ID: "second", StartSecond: 8, WaitSeconds: 3, EndSecond: 11},
		{ID: "third", StartSecond: 11, WaitSeconds: 6, EndSecond: 14},
	}
	if !reflect.DeepEqual(outs, want) {
		t.Fatalf("tie-broken schedule %+v, want %+v", outs, want)
	}
}

func TestSimulateFCFSNoBackfilling(t *testing.T) {
	// A small later arrival may not jump a big job waiting at the head.
	allocs := []Allocation{
		{ID: "running", ArrivalSecond: 0, Tokens: 10, DurationSeconds: 10},
		{ID: "blocked-big", ArrivalSecond: 1, Tokens: 10, DurationSeconds: 1},
		{ID: "small-later", ArrivalSecond: 2, Tokens: 1, DurationSeconds: 1},
	}
	outs, err := SimulateFCFSQuota(10, nil, allocs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[2].StartSecond < outs[1].StartSecond {
		t.Fatalf("backfilled: small started %d before big %d", outs[2].StartSecond, outs[1].StartSecond)
	}
}

func TestSimulateFCFSValidation(t *testing.T) {
	if _, err := SimulateFCFSQuota(10, nil, []Allocation{{ID: "z", Tokens: 0, DurationSeconds: 1}}); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("zero tokens: %v", err)
	}
	if _, err := SimulateFCFSQuota(10, nil, []Allocation{{ID: "n", Tokens: 1, DurationSeconds: -1}}); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("negative duration: %v", err)
	}
	if _, err := SimulateFCFSQuota(10, nil, []Allocation{{ID: "a", ArrivalSecond: -1, Tokens: 1, DurationSeconds: 1}}); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("negative arrival: %v", err)
	}
	outs, err := SimulateFCFSQuota(10, nil, nil)
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty simulation: %v %v", outs, err)
	}
}

func TestParsePolicyKind(t *testing.T) {
	cases := map[string]PolicyKind{
		"":                         PolicyOptimal,
		"optimal":                  PolicyOptimal,
		"Optimal Allocation":       PolicyOptimal,
		"default":                  PolicyDefault,
		"peak":                     PolicyPeak,
		"Peak Allocation":          PolicyPeak,
		"adaptive-peak":            PolicyAdaptivePeak,
		"Adaptive Peak Allocation": PolicyAdaptivePeak,
		"ADAPTIVE_PEAK":            PolicyAdaptivePeak,
	}
	for in, want := range cases {
		got, err := ParsePolicyKind(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicyKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicyKind("greedy"); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("unknown policy: %v", err)
	}
	// Round trip: every policy's Figure-1 name parses back to itself.
	for _, k := range []PolicyKind{PolicyDefault, PolicyPeak, PolicyAdaptivePeak, PolicyOptimal} {
		got, err := ParsePolicyKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
}

func TestAccountPolicyTypedErrors(t *testing.T) {
	sky := skyline.Skyline{1}
	if _, err := AccountPolicy(PolicyDefault, sky, 0, 0); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("default 0: %v", err)
	}
	if _, err := AccountPolicy(PolicyOptimal, sky, 10, 0); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("optimal 0: %v", err)
	}
	if _, err := AccountPolicy(PolicyKind(99), sky, 10, 10); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("unknown policy: %v", err)
	}
}

// planCurve is a well-behaved power law: R(A) = 600·A^−0.5.
func planCurve() pcc.Curve { return pcc.Curve{A: -0.5, B: 600} }

func planSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{
			ID:              "job" + string(rune('a'+i%26)),
			ArrivalSecond:   float64(i),
			RequestedTokens: 80,
			PeakTokens:      60,
			Curve:           planCurve(),
		}
	}
	return specs
}

func TestBuildValidation(t *testing.T) {
	specs := planSpecs(2)
	if _, err := Build(specs, Config{Capacity: 0, Policy: PolicyOptimal}); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero capacity: %v", err)
	}
	if _, err := Build(nil, Config{Capacity: 10, Policy: PolicyOptimal}); !errors.Is(err, ErrNoJobs) {
		t.Fatalf("no jobs: %v", err)
	}
	if _, err := Build(specs, Config{Capacity: 10, Policy: PolicyKind(42)}); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("bad policy: %v", err)
	}
	bad := planSpecs(1)
	bad[0].Curve = pcc.Curve{}
	if _, err := Build(bad, Config{Capacity: 10, Policy: PolicyOptimal}); !errors.Is(err, ErrBadCurve) {
		t.Fatalf("invalid curve: %v", err)
	}
	neg := planSpecs(1)
	neg[0].ArrivalSecond = -2
	if _, err := Build(neg, Config{Capacity: 10, Policy: PolicyOptimal}); !errors.Is(err, ErrBadArrival) {
		t.Fatalf("negative arrival: %v", err)
	}
}

func TestBuildPolicyStrategies(t *testing.T) {
	specs := planSpecs(1)
	cap := 100

	def, err := Build(specs, Config{Capacity: cap, Policy: PolicyDefault})
	if err != nil {
		t.Fatal(err)
	}
	if def.Allocations[0].Tokens != 80 {
		t.Fatalf("default tokens %d, want requested 80", def.Allocations[0].Tokens)
	}

	peak, err := Build(specs, Config{Capacity: cap, Policy: PolicyPeak})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Allocations[0].Tokens != 60 {
		t.Fatalf("peak tokens %d, want peak estimate 60", peak.Allocations[0].Tokens)
	}

	opt, err := Build(specs, Config{Capacity: cap, Policy: PolicyOptimal})
	if err != nil {
		t.Fatal(err)
	}
	// |a|/threshold = 0.5/0.01 = 50 with the default threshold.
	if opt.Allocations[0].Tokens != 50 {
		t.Fatalf("optimal tokens %d, want 50", opt.Allocations[0].Tokens)
	}
	// Tighter threshold stops sooner.
	loose, err := Build(specs, Config{Capacity: cap, Policy: PolicyOptimal, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Allocations[0].Tokens != 10 {
		t.Fatalf("optimal tokens at 5%% threshold: %d, want 10", loose.Allocations[0].Tokens)
	}

	// Durations follow the curve: fewer tokens, longer predicted run.
	if !(opt.Allocations[0].DurationSeconds > peak.Allocations[0].DurationSeconds) {
		t.Fatalf("duration at 50 tokens (%ds) not above duration at 60 (%ds)",
			opt.Allocations[0].DurationSeconds, peak.Allocations[0].DurationSeconds)
	}
	// And the provisioned cost is lower: b·A^(1+a) grows with A for a>−1.
	if !(opt.Stats.TotalTokenSeconds < peak.Stats.TotalTokenSeconds) {
		t.Fatalf("optimal cost %d not below peak cost %d",
			opt.Stats.TotalTokenSeconds, peak.Stats.TotalTokenSeconds)
	}
}

func TestBuildClampsIntoPool(t *testing.T) {
	specs := planSpecs(1)
	specs[0].RequestedTokens = 500 // over the pool
	specs[0].PeakTokens = 0        // unknown peak falls back to requested
	for _, pol := range []PolicyKind{PolicyDefault, PolicyPeak, PolicyAdaptivePeak, PolicyOptimal} {
		p, err := Build(specs, Config{Capacity: 40, Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got := p.Allocations[0].Tokens; got < 1 || got > 40 {
			t.Fatalf("%v allocated %d tokens outside [1, 40]", pol, got)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	specs := planSpecs(50)
	cfg := Config{Capacity: 120, Policy: PolicyOptimal}
	a, err := Build(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same specs + config produced different plans")
	}
	if len(a.Outcomes) != 50 || a.Stats.MakespanSeconds <= 0 {
		t.Fatalf("degenerate plan: %+v", a.Stats)
	}
}

func TestPredictedDurationFloors(t *testing.T) {
	// A flat tiny curve still occupies the pool for at least a second.
	if d := predictedDuration(pcc.Curve{A: 0, B: 0.01}, 10); d != 1 {
		t.Fatalf("duration %d, want floor 1", d)
	}
	if d := predictedDuration(planCurve(), 4); d != 300 {
		t.Fatalf("duration %d, want ceil(600/2)=300", d)
	}
}

// TestSavedVsPeak pins the savings figure's arithmetic to the bits of
// 1 − cost/baseline in float64, which the plan soak's digests hold (the
// algebraically equal (baseline − cost)/baseline differs in the last bit on
// two rows), and the batch that makes a caller's Peak pricing fail: a
// flat curve whose Optimal plan fits the planner's range while the Peak
// baseline of the same specs overflows it with ErrCostRange, which a
// caller must return rather than price as nothing saved.
func TestSavedVsPeak(t *testing.T) {
	for _, tc := range []struct {
		cost, baseline int64
		want           float64
	}{
		{4250, 8600, 0.5058139534883721},
		{8600, 8600, 0},
		{9000, 8600, -0.04651162790697683},
		{5, 0, 0},
		{1 << 60, 3 << 59, 0.33333333333333337},
	} {
		if got := SavedVsPeak(tc.cost, tc.baseline); got != tc.want {
			t.Errorf("SavedVsPeak(%d, %d) = %v, want %v", tc.cost, tc.baseline, got, tc.want)
		}
	}

	specs := []JobSpec{{ID: "flat", RequestedTokens: 100, PeakTokens: 200, Curve: pcc.Curve{A: 0, B: 1e14}}}
	opt, err := Build(specs, Config{Capacity: 400, Policy: PolicyOptimal})
	if err != nil {
		t.Fatalf("optimal plan: %v", err)
	}
	if _, err := Allocate(specs, Config{Capacity: 400, Policy: PolicyPeak}); !errors.Is(err, ErrCostRange) {
		t.Fatalf("peak baseline of a %d token-second optimal plan: %v, want ErrCostRange", opt.Stats.TotalTokenSeconds, err)
	}
}
