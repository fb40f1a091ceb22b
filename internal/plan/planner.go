package plan

import (
	"fmt"
	"math"

	"tasq/internal/pcc"
)

// JobSpec is one job entering the planner: its compile-time request
// metadata plus the predicted performance characteristic curve that any
// of the registered predictors produced for it. The planner never
// consults a model itself — the caller (internal/serve routes through
// internal/model's Mux/Policy) resolves curves, so every predictor can
// drive planning.
type JobSpec struct {
	ID string
	// ArrivalSecond is when the job enters the queue (0 = one batch).
	// Fractional arrivals floor to their containing second; NaN/±Inf and
	// negative values are rejected with ErrBadArrival.
	ArrivalSecond float64
	// RequestedTokens is the user's token request — the Default policy's
	// allocation and the cap on the optimal-token search.
	RequestedTokens int
	// PeakTokens is the compile-time peak-parallelism estimate (the
	// widest stage): the Peak and Adaptive Peak policies' request. At
	// plan time no skyline exists yet, so this stands in for the
	// observed peak of Figure 1. Under StrategyRetry it is also the
	// second attempt's allocation.
	PeakTokens int
	// Curve is the predicted PCC R = b·Aᵃ driving run-time estimates.
	Curve pcc.Curve
	// DeadlineSecond is the absolute simulated second the job should
	// drain by (0 = no SLA). StrategyBackfill prioritizes deadline
	// holders and guarantees it never misses a feasible deadline the
	// FCFS schedule met.
	DeadlineSecond int
	// Tenant attributes the job to a per-tenant quota ("" = unquoted).
	Tenant string
}

// maxArrivalSecond bounds arrival times (≈35k simulated years). Finite
// floats beyond it would overflow the int conversion with an
// implementation-specific result, so they are rejected with
// ErrBadArrival alongside NaN/±Inf.
const maxArrivalSecond = 1 << 40

// maxPlanTokenSeconds bounds a batch's provisioned cost Σ tokens×duration,
// both legs of a retried job counted (2^53−1 where int has 64 bits: every
// cost the plan reports is then exact in a float64 and a JSON number as
// well). Capacity, curves and job counts are otherwise unbounded, so this
// is what keeps every int the planner sums from wrapping: tokens ≥ 1 makes
// it a bound on Σ durations too, hence on every simulated second
// (≤ maxArrivalSecond + Σ durations). Allocate rejects anything above it
// with ErrCostRange.
const maxPlanTokenSeconds = math.MaxInt >> 10

// addCost returns total plus a's provisioned cost (both legs), or false
// when that exceeds maxPlanTokenSeconds. Tokens are ≥ 1, durations ≥ 0 and
// total is a previous result, so the comparisons themselves cannot
// overflow.
func addCost(total int, a Allocation) (int, bool) {
	if a.DurationSeconds > (maxPlanTokenSeconds-total)/a.Tokens {
		return 0, false
	}
	total += a.Tokens * a.DurationSeconds
	if !a.retries() {
		return total, true
	}
	if a.RetryDurationSeconds > (maxPlanTokenSeconds-total)/a.RetryTokens {
		return 0, false
	}
	return total + a.RetryTokens*a.RetryDurationSeconds, true
}

// Config parameterizes one plan.
type Config struct {
	// Capacity is the shared pool's guaranteed-token capacity.
	Capacity int
	// Policy selects the per-job allocation strategy.
	Policy PolicyKind
	// Threshold is the §2.1 optimal-allocation termination threshold
	// (≤ 0 selects pcc.DefaultThreshold).
	Threshold float64
	// Strategy selects how allocations are scheduled onto the pool
	// (zero value = StrategyFCFS).
	Strategy Strategy
	// Quota caps each tenant's concurrently held tokens; allocations are
	// additionally clamped into [1, quota] so a quoted tenant's job can
	// always eventually run.
	Quota Quota
	// RetrySeed seeds StrategyRetry's simulated true-demand draws
	// (RetryDemand); plans are a pure function of specs + config.
	RetrySeed uint64
}

// Plan is a feasible assignment of the jobs to the pool: per-job
// allocations and simulated outcomes in input order, plus the aggregate
// queueing statistics. TotalTokenSeconds in Stats is the plan's
// provisioned cost Σ tokens×duration (both attempts under
// StrategyRetry).
type Plan struct {
	Policy      PolicyKind
	Strategy    Strategy
	Capacity    int
	Allocations []Allocation
	Outcomes    []Outcome
	Stats       Stats
	// FellBack reports that StrategyBackfill's packed schedule regressed
	// the FCFS makespan or missed a feasible deadline FCFS met, so the
	// plan kept the FCFS schedule instead.
	FellBack bool
}

// Allocate validates the batch and sizes every job under cfg.Policy — the
// half of Build that decides what a plan provisions, before any schedule
// exists. Allocations are clamped into [1, min(capacity, tenant quota)] so
// a well-formed request always yields a feasible plan: a job can never
// hold more tokens than the pool (or its tenant's quota) has. Provisioned
// cost (Allocation.TokenSeconds) depends on these alone, never on the
// schedule, so a caller that only prices a policy stops here.
func Allocate(specs []JobSpec, cfg Config) ([]Allocation, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, cfg.Capacity)
	}
	if len(specs) == 0 {
		return nil, ErrNoJobs
	}
	if cfg.Strategy != StrategyFCFS && cfg.Strategy != StrategyBackfill && cfg.Strategy != StrategyRetry {
		return nil, fmt.Errorf("%w: %d", ErrBadStrategy, int(cfg.Strategy))
	}
	if err := cfg.Quota.Validate(); err != nil {
		return nil, err
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = pcc.DefaultThreshold
	}
	allocs := make([]Allocation, len(specs))
	cost := 0
	for i := range specs {
		sp := &specs[i]
		if !sp.Curve.Valid() {
			return nil, fmt.Errorf("%w: job %s: %v", ErrBadCurve, sp.ID, sp.Curve)
		}
		if math.IsNaN(sp.ArrivalSecond) || math.IsInf(sp.ArrivalSecond, 0) ||
			sp.ArrivalSecond < 0 || sp.ArrivalSecond > maxArrivalSecond {
			return nil, fmt.Errorf("%w: job %s arrives at %v", ErrBadArrival, sp.ID, sp.ArrivalSecond)
		}
		if sp.DeadlineSecond < 0 {
			return nil, fmt.Errorf("%w: job %s deadline %d", ErrBadDeadline, sp.ID, sp.DeadlineSecond)
		}
		// A quoted tenant's jobs are clamped into the quota as well as
		// the pool, mirroring the capacity truncation rule.
		capFor := cfg.Capacity
		if q, ok := cfg.Quota[sp.Tenant]; ok && q < capFor {
			capFor = q
		}
		tokens, err := tokensFor(sp, cfg.Policy, capFor, threshold)
		if err != nil {
			return nil, err
		}
		allocs[i] = Allocation{
			ID:              sp.ID,
			ArrivalSecond:   int(math.Floor(sp.ArrivalSecond)),
			Tokens:          tokens,
			DurationSeconds: predictedDuration(sp.Curve, tokens),
			Tenant:          sp.Tenant,
			DeadlineSecond:  sp.DeadlineSecond,
		}
		if cfg.Strategy == StrategyRetry {
			// First-allocation sizing: the policy's (sub-peak) slice is
			// attempt one; a job whose simulated true demand exceeds it
			// overruns and re-runs at the peak estimate.
			peak := clamp(sp.PeakTokens, 1, capFor)
			if need := RetryDemand(cfg.RetrySeed, sp.ID, sp.PeakTokens); need > 0 && clamp(need, 1, capFor) > tokens {
				allocs[i].RetryTokens = peak
				allocs[i].RetryDurationSeconds = predictedDuration(sp.Curve, peak)
			}
		}
		var inRange bool
		if cost, inRange = addCost(cost, allocs[i]); !inRange {
			return nil, fmt.Errorf("%w: above %d token-seconds at job %s (%d tokens for %d s)",
				ErrCostRange, maxPlanTokenSeconds, sp.ID, tokens, allocs[i].DurationSeconds)
		}
	}
	return allocs, nil
}

// Build allocates every job under cfg.Policy (Allocate) and simulates the
// batch through the pool with cfg.Strategy. Deterministic: same specs +
// config → identical plan, event for event.
func Build(specs []JobSpec, cfg Config) (*Plan, error) {
	allocs, err := Allocate(specs, cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Policy:      cfg.Policy,
		Strategy:    cfg.Strategy,
		Capacity:    cfg.Capacity,
		Allocations: allocs,
	}
	var outs []Outcome
	switch cfg.Strategy {
	case StrategyBackfill:
		outs, err = buildBackfill(cfg, allocs, p)
	case StrategyRetry:
		outs, err = SimulateRetry(cfg.Capacity, cfg.Quota, allocs)
	default:
		outs, err = SimulateFCFSQuota(cfg.Capacity, cfg.Quota, allocs)
	}
	if err != nil {
		return nil, err
	}
	p.Outcomes = outs
	p.Stats = Summarize(allocs, outs)
	return p, nil
}

// SavedVsPeak is the share of a baseline's token-seconds that a plan
// costing cost saves: 1 − cost/baseline, or 0 for an empty baseline. It is
// the one statement of TASQ's "saved vs Peak" figure, whose baseline is
// what PolicyPeak provisions for the same jobs and curves (Allocate prices
// it; no schedule changes it). The plan soak also applies it to its
// AutoToken lane.
func SavedVsPeak(cost, baseline int64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 1 - float64(cost)/float64(baseline)
}

// buildBackfill simulates both the packed and the FCFS schedules and
// keeps the packed one only when it is not worse: no longer makespan,
// and no feasible deadline (one the FCFS schedule met) missed. The
// provisioned cost is identical either way — allocations don't change —
// so packed cost ≤ FCFS cost holds by construction, and this guard makes
// packed makespan ≤ FCFS makespan and the no-deadline-regression rule
// hold by construction too.
func buildBackfill(cfg Config, allocs []Allocation, p *Plan) ([]Outcome, error) {
	fcfs, err := SimulateFCFSQuota(cfg.Capacity, cfg.Quota, allocs)
	if err != nil {
		return nil, err
	}
	packed, err := SimulateBackfill(cfg.Capacity, cfg.Quota, allocs)
	if err != nil {
		return nil, err
	}
	if backfillRegressed(allocs, fcfs, packed) {
		p.FellBack = true
		return fcfs, nil
	}
	return packed, nil
}

// backfillRegressed reports whether the packed schedule is worse than
// FCFS on either guarantee: a feasible deadline missed or a longer
// makespan.
func backfillRegressed(allocs []Allocation, fcfs, packed []Outcome) bool {
	makespanF, makespanP := 0, 0
	for i, a := range allocs {
		if a.DeadlineSecond > 0 && fcfs[i].EndSecond <= a.DeadlineSecond && packed[i].EndSecond > a.DeadlineSecond {
			return true
		}
		if fcfs[i].EndSecond > makespanF {
			makespanF = fcfs[i].EndSecond
		}
		if packed[i].EndSecond > makespanP {
			makespanP = packed[i].EndSecond
		}
	}
	return makespanP > makespanF
}

// tokensFor applies one policy strategy to one job. capacity here is the
// job's effective cap: pool capacity, further narrowed by its tenant's
// quota.
func tokensFor(sp *JobSpec, policy PolicyKind, capacity int, threshold float64) (int, error) {
	requested := clamp(sp.RequestedTokens, 1, capacity)
	switch policy {
	case PolicyDefault:
		return requested, nil
	case PolicyPeak, PolicyAdaptivePeak:
		// Both peak policies admit at the compile-time peak estimate;
		// adaptive peak differs only in how the reservation decays over
		// the job's lifetime, not in what it requests from the queue.
		if sp.PeakTokens < 1 {
			return requested, nil
		}
		return clamp(sp.PeakTokens, 1, capacity), nil
	case PolicyOptimal:
		return sp.Curve.OptimalTokens(1, requested, threshold), nil
	}
	return 0, fmt.Errorf("%w: %d", ErrBadPolicy, int(policy))
}

// predictedDuration rounds the curve's run-time prediction up to whole
// seconds with a floor of 1 — a job never occupies the pool for zero
// time. The curve was validated by Build, so the prediction is finite.
func predictedDuration(c pcc.Curve, tokens int) int {
	rt := c.Runtime(float64(tokens))
	if math.IsNaN(rt) || rt < 1 {
		return 1
	}
	if rt > maxPlanTokenSeconds {
		// Beyond any admissible cost, and beyond int for large enough
		// curves: saturate rather than convert (Allocate then rejects
		// the batch with ErrCostRange).
		return math.MaxInt
	}
	return int(math.Ceil(rt))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
