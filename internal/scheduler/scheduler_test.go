// Package scheduler_test holds the offline scheduler's checks of the
// paper's allocation claims: the Figure-1 provisioning policies with their
// over-allocation accounting, and the token-capacity FCFS cluster whose
// queueing shows the §1 benefit of requesting fewer tokens ("utilizing
// fewer tokens reduces job wait time and improves the overall resource
// availability for other jobs in the cluster"). Both live in
// internal/plan, the shared allocation core, which these tests call
// directly.
package scheduler_test

import (
	"testing"

	"tasq/internal/plan"
	"tasq/internal/skyline"
)

func TestPolicyNames(t *testing.T) {
	for _, p := range []plan.PolicyKind{plan.PolicyDefault, plan.PolicyPeak, plan.PolicyAdaptivePeak, plan.PolicyOptimal} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestAccountPolicyFigure1Ordering(t *testing.T) {
	// Figure 1's qualitative claim: Default ≥ Peak ≥ AdaptivePeak ≥ usage.
	sky := skyline.Skyline{10, 40, 80, 30, 5, 60, 20}
	def, err := plan.AccountPolicy(plan.PolicyDefault, sky, 125, 0)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := plan.AccountPolicy(plan.PolicyPeak, sky, 125, 0)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := plan.AccountPolicy(plan.PolicyAdaptivePeak, sky, 125, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(def.AllocatedTokenSeconds >= peak.AllocatedTokenSeconds &&
		peak.AllocatedTokenSeconds >= adaptive.AllocatedTokenSeconds &&
		adaptive.AllocatedTokenSeconds >= sky.Area()) {
		t.Fatalf("policy ordering broken: default %d peak %d adaptive %d used %d",
			def.AllocatedTokenSeconds, peak.AllocatedTokenSeconds, adaptive.AllocatedTokenSeconds, sky.Area())
	}
	if def.OverAllocation != def.AllocatedTokenSeconds-sky.Area() {
		t.Fatal("over-allocation arithmetic wrong")
	}
	if def.Utilization() <= 0 || def.Utilization() > 1 {
		t.Fatalf("utilization %v", def.Utilization())
	}
	if peak.RequestTokens != sky.Peak() {
		t.Fatalf("peak request %d, want %d", peak.RequestTokens, sky.Peak())
	}
}

func TestAccountPolicyOptimal(t *testing.T) {
	// Optimal allocation at 50 tokens with the re-simulated skyline.
	sky := skyline.Skyline{50, 50, 30, 20}
	acc, err := plan.AccountPolicy(plan.PolicyOptimal, sky, 125, 50)
	if err != nil {
		t.Fatal(err)
	}
	if acc.RequestTokens != 50 {
		t.Fatalf("request %d", acc.RequestTokens)
	}
	if acc.AllocatedTokenSeconds != 50*4 {
		t.Fatalf("allocated %d", acc.AllocatedTokenSeconds)
	}
}

func TestAccountPolicyErrors(t *testing.T) {
	sky := skyline.Skyline{1}
	if _, err := plan.AccountPolicy(plan.PolicyDefault, sky, 0, 0); err == nil {
		t.Fatal("default 0 accepted")
	}
	if _, err := plan.AccountPolicy(plan.PolicyOptimal, sky, 10, 0); err == nil {
		t.Fatal("optimal 0 accepted")
	}
	if _, err := plan.AccountPolicy(plan.PolicyKind(99), sky, 10, 10); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAccountPolicyOveruseClampsToZeroWaste(t *testing.T) {
	sky := skyline.Skyline{20, 20} // used 40 > allocated 10×2
	acc, err := plan.AccountPolicy(plan.PolicyDefault, sky, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc.OverAllocation != 0 {
		t.Fatalf("over-allocation %d, want 0", acc.OverAllocation)
	}
}

func TestClusterRunSerializesWhenFull(t *testing.T) {
	subs := []plan.Allocation{
		{ID: "a", ArrivalSecond: 0, Tokens: 100, DurationSeconds: 10},
		{ID: "b", ArrivalSecond: 0, Tokens: 100, DurationSeconds: 10},
		{ID: "c", ArrivalSecond: 0, Tokens: 100, DurationSeconds: 10},
	}
	scheds, err := plan.SimulateFCFSQuota(100, nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	if scheds[0].WaitSeconds != 0 || scheds[1].WaitSeconds != 10 || scheds[2].WaitSeconds != 20 {
		t.Fatalf("waits %v", scheds)
	}
}

func TestClusterRunParallelWhenFits(t *testing.T) {
	subs := []plan.Allocation{
		{ID: "a", ArrivalSecond: 0, Tokens: 50, DurationSeconds: 10},
		{ID: "b", ArrivalSecond: 0, Tokens: 50, DurationSeconds: 10},
	}
	scheds, err := plan.SimulateFCFSQuota(100, nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	if scheds[0].WaitSeconds != 0 || scheds[1].WaitSeconds != 0 {
		t.Fatalf("parallel jobs waited: %v", scheds)
	}
}

func TestClusterRunRespectsArrivals(t *testing.T) {
	subs := []plan.Allocation{
		{ID: "late", ArrivalSecond: 100, Tokens: 5, DurationSeconds: 5},
		{ID: "early", ArrivalSecond: 0, Tokens: 5, DurationSeconds: 5},
	}
	scheds, err := plan.SimulateFCFSQuota(10, nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	if scheds[0].StartSecond != 100 {
		t.Fatalf("late job started at %d", scheds[0].StartSecond)
	}
	if scheds[1].StartSecond != 0 {
		t.Fatalf("early job started at %d", scheds[1].StartSecond)
	}
}

func TestClusterRunErrors(t *testing.T) {
	if _, err := plan.SimulateFCFSQuota(0, nil, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := plan.SimulateFCFSQuota(10, nil, []plan.Allocation{{ID: "big", Tokens: 20, DurationSeconds: 1}}); err == nil {
		t.Fatal("oversize request accepted")
	}
	if _, err := plan.SimulateFCFSQuota(10, nil, []plan.Allocation{{ID: "neg", Tokens: 5, DurationSeconds: -1}}); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestSmallerRequestsReduceWait(t *testing.T) {
	// The §1 motivation: shrinking token requests lowers queueing delay.
	var fat, thin []plan.Allocation
	for i := 0; i < 20; i++ {
		fat = append(fat, plan.Allocation{ID: "f", ArrivalSecond: i, Tokens: 80, DurationSeconds: 30})
		thin = append(thin, plan.Allocation{ID: "t", ArrivalSecond: i, Tokens: 40, DurationSeconds: 33})
	}
	fs, err := plan.SimulateFCFSQuota(100, nil, fat)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := plan.SimulateFCFSQuota(100, nil, thin)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Summarize(thin, ts).MeanWaitSeconds >= plan.Summarize(fat, fs).MeanWaitSeconds {
		t.Fatalf("thin requests waited %.1fs, fat %.1fs",
			plan.Summarize(thin, ts).MeanWaitSeconds, plan.Summarize(fat, fs).MeanWaitSeconds)
	}
}

func TestSummarize(t *testing.T) {
	subs := []plan.Allocation{{Tokens: 10, DurationSeconds: 5}, {Tokens: 20, DurationSeconds: 2}}
	scheds := []plan.Outcome{
		{WaitSeconds: 4, EndSecond: 9},
		{WaitSeconds: 0, EndSecond: 11},
	}
	st := plan.Summarize(subs, scheds)
	if st.MeanWaitSeconds != 2 || st.MaxWaitSeconds != 4 || st.MakespanSeconds != 11 {
		t.Fatalf("stats %+v", st)
	}
	if st.TotalTokenSeconds != 10*5+20*2 {
		t.Fatalf("token seconds %d", st.TotalTokenSeconds)
	}
	if got := plan.Summarize(nil, nil); got.MeanWaitSeconds != 0 {
		t.Fatal("empty summarize must be zero")
	}
}
