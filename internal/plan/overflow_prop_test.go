package plan

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"tasq/internal/pcc"
)

// flatJob is a job whose allocation Build can be steered to exactly: under
// PolicyDefault it gets min(tokens, capacity) tokens, and the flat curve
// (a = 0) predicts seconds whatever the allocation.
func flatJob(i, tokens int, seconds, arrival float64) JobSpec {
	return JobSpec{
		ID:              fmt.Sprintf("job-%d", i),
		ArrivalSecond:   arrival,
		RequestedTokens: tokens,
		PeakTokens:      tokens,
		Curve:           pcc.Curve{A: 0, B: seconds},
	}
}

// bigCost is Σ tokens×duration over both legs in arbitrary precision: the
// oracle the int arithmetic is held against.
func bigCost(allocs []Allocation) *big.Int {
	total := new(big.Int)
	mul := func(a, b int) *big.Int { return new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b))) }
	for _, a := range allocs {
		total.Add(total, mul(a.Tokens, a.DurationSeconds))
		total.Add(total, mul(a.RetryTokens, a.RetryDurationSeconds))
	}
	return total
}

// requireSoundPlan checks an accepted plan against the oracle: the cost is
// the exact sum and inside the bound, no time or statistic is negative, and
// the schedule is feasible.
func requireSoundPlan(t *testing.T, label string, cfg Config, p *Plan) {
	t.Helper()
	want := bigCost(p.Allocations)
	if want.Cmp(big.NewInt(maxPlanTokenSeconds)) > 0 {
		t.Fatalf("%s: accepted a plan costing %v token-seconds, above the bound %d", label, want, maxPlanTokenSeconds)
	}
	if !want.IsInt64() || int(want.Int64()) != p.Stats.TotalTokenSeconds {
		t.Fatalf("%s: TotalTokenSeconds %d, exact sum %v", label, p.Stats.TotalTokenSeconds, want)
	}
	if w := p.Stats.RetryWasteTokenSeconds; w < 0 || w > p.Stats.TotalTokenSeconds {
		t.Fatalf("%s: retry waste %d outside [0, total %d]", label, w, p.Stats.TotalTokenSeconds)
	}
	for i, o := range p.Outcomes {
		a := p.Allocations[i]
		if o.StartSecond < a.ArrivalSecond || o.WaitSeconds < 0 || o.EndSecond < o.StartSecond+a.DurationSeconds {
			t.Fatalf("%s: job %d wrapped: arrival %d, outcome %+v, duration %d", label, i, a.ArrivalSecond, o, a.DurationSeconds)
		}
	}
	st := p.Stats
	if st.MakespanSeconds < 0 || st.MaxWaitSeconds < 0 || st.MeanWaitSeconds < 0 ||
		math.IsNaN(st.MeanWaitSeconds) || st.MeanWaitSeconds > float64(st.MaxWaitSeconds) {
		t.Fatalf("%s: stats wrapped: %+v", label, st)
	}
	if err := ValidateSchedule(cfg.Capacity, cfg.Quota, p.Allocations, p.Outcomes); err != nil {
		t.Fatalf("%s: accepted plan is infeasible: %v", label, err)
	}
}

var allStrategies = []Strategy{StrategyFCFS, StrategyBackfill, StrategyRetry}

// At the admitted maxima of capacity (any positive int), duration (any
// valid curve) and arrival (2^40), Build either returns a plan whose sums
// are exact or refuses with ErrCostRange; it never wraps.
func TestBuildRejectsCostsBeyondIntRange(t *testing.T) {
	for _, s := range allStrategies {
		cfg := Config{Capacity: math.MaxInt, Policy: PolicyDefault, Strategy: s}
		for name, specs := range map[string][]JobSpec{
			"max-tokens-max-duration": {flatJob(0, math.MaxInt, math.MaxFloat64, maxArrivalSecond)},
			"duration-beyond-int":     {flatJob(0, 1, 1e300, 0)},
			"product-wraps-to-small":  {flatJob(0, 1<<32, 1<<32, 0)}, // 2^64 ≡ 0 in int64
			"sum-wraps":               {flatJob(0, 1<<31, 1<<31, 0), flatJob(1, 1<<31, 1<<31, 0), flatJob(2, 1<<31, 1<<31, 0), flatJob(3, 1<<31, 1<<31, 0)},
			"one-past-the-bound":      {flatJob(0, 1, maxPlanTokenSeconds, 0), flatJob(1, 1, 1, maxArrivalSecond)},
		} {
			if _, err := Build(specs, cfg); !errors.Is(err, ErrCostRange) {
				t.Fatalf("%v %s: err %v, want ErrCostRange", s, name, err)
			}
		}
		// Exactly the bound is admitted, at the latest admitted arrival.
		specs := []JobSpec{flatJob(0, 1, maxPlanTokenSeconds-4, maxArrivalSecond), flatJob(1, 2, 2, maxArrivalSecond)}
		p, err := Build(specs, cfg)
		if err != nil {
			t.Fatalf("%v: plan costing exactly the bound rejected: %v", s, err)
		}
		if p.Stats.TotalTokenSeconds != maxPlanTokenSeconds {
			t.Fatalf("%v: cost %d, want the bound %d", s, p.Stats.TotalTokenSeconds, maxPlanTokenSeconds)
		}
		requireSoundPlan(t, fmt.Sprintf("%v at-the-bound", s), cfg, p)
	}
}

// Random batches whose costs straddle the bound. Under PolicyDefault with
// flat curves the allocations are known in advance, so the oracle decides
// accept-or-reject exactly; PolicyPeak with the retry strategy adds second
// legs, where a rejection must still be justified by the worst case.
func TestBuildCostBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	bound := big.NewInt(maxPlanTokenSeconds)
	for trial := 0; trial < 600; trial++ {
		s := allStrategies[trial%len(allStrategies)]
		n := 1 + rng.Intn(40)
		// Per-job costs around bound/n, a few bits either side.
		perJob := float64(maxPlanTokenSeconds) / float64(n) * math.Exp2(4*rng.Float64()-3)
		capacity := 1 + rng.Intn(1<<20)
		if trial%5 == 0 {
			capacity = math.MaxInt
		}
		specs := make([]JobSpec, n)
		exact := new(big.Int)
		for i := range specs {
			tokens := 1 + rng.Intn(1<<uint(1+rng.Intn(20)))
			seconds := math.Ceil(perJob / float64(tokens) * (0.5 + rng.Float64()))
			specs[i] = flatJob(i, tokens, seconds, float64(rng.Intn(1000)))
			granted := min(tokens, capacity)
			exact.Add(exact, new(big.Int).Mul(big.NewInt(int64(granted)), big.NewInt(int64(seconds))))
		}
		cfg := Config{Capacity: capacity, Policy: PolicyDefault, Strategy: s, RetrySeed: uint64(trial)}
		label := fmt.Sprintf("trial %d (%v, %d jobs)", trial, s, n)
		p, err := Build(specs, cfg)
		switch {
		case err == nil:
			requireSoundPlan(t, label, cfg, p)
		case !errors.Is(err, ErrCostRange):
			t.Fatalf("%s: err %v, want a plan or ErrCostRange", label, err)
		}
		// First legs alone decide FCFS and backfill exactly. A retry leg
		// re-runs at the same tokens (peak = requested here) for the same
		// flat duration, so the worst case doubles the cost.
		worst := exact
		if s == StrategyRetry {
			worst = new(big.Int).Lsh(exact, 1)
		}
		if err == nil && exact.Cmp(bound) > 0 {
			t.Fatalf("%s: accepted although first legs cost %v > bound", label, exact)
		}
		if err != nil && worst.Cmp(bound) <= 0 {
			t.Fatalf("%s: rejected although the worst case costs %v ≤ bound", label, worst)
		}
	}
}

// Waits are the one sum the cost bound does not keep inside int: 2048 jobs
// serialized on one token wait 2^63 seconds between them. The mean must
// come out right, not wrapped.
func TestSummarizeMeanWaitDoesNotWrap(t *testing.T) {
	const n = 2048
	each := maxPlanTokenSeconds / n // ≈ 2^42 s
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = flatJob(i, 1, float64(each), 0)
	}
	cfg := Config{Capacity: 1, Policy: PolicyDefault}
	p, err := Build(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSoundPlan(t, "serialized", cfg, p)
	want := float64(each) * float64(n-1) / 2 // job i waits i×each
	if got := p.Stats.MeanWaitSeconds; math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("mean wait %v, want %v", got, want)
	}
}
