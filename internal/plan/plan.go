// Package plan is the shared allocation core of the TASQ reproduction:
// one Allocation/Pool/Outcome vocabulary for everything that reasons
// about token capacity. The Figure-1 provisioning policies
// (internal/scheduler re-exports them), the token-capacity cluster
// simulator (one event loop, simulate, under the FCFS, backfill
// bin-packing and first-allocation retry disciplines), the scopesim
// executor's free-token ledger, and the PCC-driven cluster planner behind
// POST /v1/plan all build on the types in this package, so capacity
// arithmetic exists exactly once.
//
// Every entry point is deterministic: the same inputs produce the same
// outcomes event for event, which is what lets the planner soak assert
// same-seed reproducibility across runs.
//
// bench_test.go times a 1,000-job batch two ways: BenchmarkPlanBuild1000,
// PlanBackfill1000 and PlanRetry1000 are Build under each strategy, and
// BenchmarkPlanSimulateFCFS1000, PlanSimulateBackfill1000 and
// PlanSimulateRetry1000 the event loop alone under each discipline.
package plan

import (
	"errors"
	"fmt"
	"sort"
)

// Typed validation errors. The serving layer maps all of them to HTTP
// 400: they mark infeasible or malformed inputs, never an internal
// planner failure.
var (
	// ErrBadCapacity rejects non-positive pool capacities.
	ErrBadCapacity = errors.New("plan: pool capacity must be positive")
	// ErrNoJobs rejects a plan over zero jobs.
	ErrNoJobs = errors.New("plan: no jobs to plan")
	// ErrBadAllocation rejects token allocations outside [1, capacity],
	// negative times, and over-releases of the pool ledger.
	ErrBadAllocation = errors.New("plan: bad token allocation")
	// ErrBadPolicy rejects unknown allocation policies.
	ErrBadPolicy = errors.New("plan: unknown allocation policy")
	// ErrBadCurve rejects planning over an invalid (non-finite or
	// non-positive) performance characteristic curve.
	ErrBadCurve = errors.New("plan: invalid performance curve")
	// ErrBadArrival rejects non-finite (NaN/±Inf) or negative arrival
	// times.
	ErrBadArrival = errors.New("plan: bad arrival time")
	// ErrBadDeadline rejects negative per-job deadlines.
	ErrBadDeadline = errors.New("plan: bad deadline")
	// ErrBadQuota rejects non-positive per-tenant token quotas.
	ErrBadQuota = errors.New("plan: bad tenant quota")
	// ErrBadStrategy rejects unknown scheduling strategies.
	ErrBadStrategy = errors.New("plan: unknown scheduling strategy")
	// ErrCostRange rejects a batch whose provisioned cost Σ tokens×duration
	// exceeds maxPlanTokenSeconds: the plan's sums are kept in int, and a
	// batch this large is refused rather than allowed to wrap.
	ErrCostRange = errors.New("plan: provisioned cost out of range")
	// ErrStarved reports a job whose request can never be satisfied by
	// the remaining pool — defense in depth; allocation validation makes
	// it unreachable through the public entry points.
	ErrStarved = errors.New("plan: job starved")
)

// Quota caps the tokens each named tenant may hold concurrently. Tenants
// absent from the map (including the empty tenant) are bounded only by
// pool capacity.
type Quota map[string]int

// Validate rejects non-positive quota entries; quotas above the pool
// capacity are legal (they simply never bind).
func (q Quota) Validate() error {
	tenants := make([]string, 0, len(q))
	for t := range q {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants) // deterministic error selection
	for _, t := range tenants {
		if q[t] < 1 {
			return fmt.Errorf("%w: tenant %q quota %d", ErrBadQuota, t, q[t])
		}
	}
	return nil
}

// Allocation is one job's claim on the pool: it requires Tokens
// guaranteed tokens for DurationSeconds starting when admitted. Under
// StrategyRetry a job whose first slice overran carries a second leg
// (RetryTokens × RetryDurationSeconds) that re-queues when the first leg
// fails; both legs' token-seconds are accounted.
type Allocation struct {
	ID              string
	ArrivalSecond   int
	Tokens          int
	DurationSeconds int
	// Tenant attributes the claim to a per-tenant quota ("" = unquoted).
	Tenant string
	// DeadlineSecond is the absolute second the job should drain by
	// (0 = no deadline).
	DeadlineSecond int
	// RetryTokens/RetryDurationSeconds describe the peak re-run leg of a
	// first-allocation overrun (0 = single attempt).
	RetryTokens          int
	RetryDurationSeconds int
}

// retries reports whether the allocation carries a second leg.
func (a Allocation) retries() bool { return a.RetryTokens > 0 }

// TokenSeconds is the allocation's provisioned cost: tokens × duration,
// both attempts of a retried job.
func (a Allocation) TokenSeconds() int {
	cost := a.Tokens * a.DurationSeconds
	if a.retries() {
		cost += a.RetryTokens * a.RetryDurationSeconds
	}
	return cost
}

// Outcome reports when an allocation ran.
type Outcome struct {
	ID          string
	StartSecond int
	WaitSeconds int
	EndSecond   int
	// RetryStartSecond is when the peak re-run leg started (0 = no
	// retry); the first leg ran [StartSecond, StartSecond+Duration) and
	// the retry [RetryStartSecond, EndSecond).
	RetryStartSecond int
}

// Pool is a fixed-capacity token ledger — the one piece of accounting
// every simulator and the scopesim executor share. A pool built with
// NewPoolQuota additionally caps each tenant's concurrently held
// tokens. It is not goroutine-safe; each simulation owns its pool.
type Pool struct {
	capacity int
	free     int
	quota    Quota
	held     map[string]int
}

// NewPool returns a ledger with capacity free tokens and no tenant
// quotas.
func NewPool(capacity int) (*Pool, error) {
	return NewPoolQuota(capacity, nil)
}

// NewPoolQuota returns a ledger with capacity free tokens whose tenants
// are additionally bounded by quota.
func NewPoolQuota(capacity int, quota Quota) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	if err := quota.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{capacity: capacity, free: capacity}
	if len(quota) > 0 {
		p.quota = quota
		p.held = make(map[string]int, len(quota))
	}
	return p, nil
}

// Capacity returns the pool's total token capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Free returns the tokens currently unclaimed.
func (p *Pool) Free() int { return p.free }

// InUse returns the tokens currently claimed.
func (p *Pool) InUse() int { return p.capacity - p.free }

// TenantInUse returns the tokens currently held by one tenant. Claims
// made through the quota-blind Acquire/AcquireUpTo entry points belong
// to the empty tenant.
func (p *Pool) TenantInUse(tenant string) int {
	if p.held == nil {
		if tenant == "" {
			return p.InUse()
		}
		return 0
	}
	return p.held[tenant]
}

// QuotaFor returns tenant's concurrent-token cap (pool capacity when
// unquoted).
func (p *Pool) QuotaFor(tenant string) int {
	if q, ok := p.quota[tenant]; ok && q < p.capacity {
		return q
	}
	return p.capacity
}

// Fits reports whether n tokens could be acquired right now by an
// unquoted caller.
func (p *Pool) Fits(n int) bool { return n >= 1 && n <= p.free }

// FitsTenant reports whether tenant could acquire n tokens right now
// without exceeding either the pool or its quota.
func (p *Pool) FitsTenant(tenant string, n int) bool {
	if n < 1 || n > p.free {
		return false
	}
	if q, ok := p.quota[tenant]; ok && p.held[tenant]+n > q {
		return false
	}
	return true
}

// Acquire claims exactly n tokens or fails without claiming any — the
// guaranteed-token admission the FCFS simulator models.
func (p *Pool) Acquire(n int) error { return p.AcquireTenant("", n) }

// AcquireTenant is Acquire charged against tenant's quota.
func (p *Pool) AcquireTenant(tenant string, n int) error {
	if p.tryAcquire(tenant, n) {
		return nil
	}
	if n < 1 || n > p.free {
		return fmt.Errorf("%w: acquire %d of %d free", ErrBadAllocation, n, p.free)
	}
	return fmt.Errorf("%w: tenant %q holding %d of %d acquiring %d",
		ErrBadAllocation, tenant, p.held[tenant], p.quota[tenant], n)
}

// tryAcquire claims n tokens for tenant iff they fit the pool and its
// quota: admission's test and claim in one step, with no error to build
// for the claim that merely has to wait.
func (p *Pool) tryAcquire(tenant string, n int) bool {
	if !p.FitsTenant(tenant, n) {
		return false
	}
	p.free -= n
	if p.held != nil {
		p.held[tenant] += n
	}
	return true
}

// AcquireUpTo claims min(want, free) tokens and returns the grant — the
// work-conserving partial admission the scopesim executor uses to start
// as many tasks as the pool allows. The grant is charged to the empty
// tenant and ignores quotas.
func (p *Pool) AcquireUpTo(want int) int {
	if want <= 0 {
		return 0
	}
	if want > p.free {
		want = p.free
	}
	p.free -= want
	if p.held != nil {
		p.held[""] += want
	}
	return want
}

// Release returns n tokens to the pool; releasing more than is
// outstanding is a ledger bug and fails.
func (p *Pool) Release(n int) error { return p.ReleaseTenant("", n) }

// ReleaseTenant is Release credited back to tenant's quota.
func (p *Pool) ReleaseTenant(tenant string, n int) error {
	if n < 0 || p.free+n > p.capacity {
		return fmt.Errorf("%w: release %d with %d of %d free", ErrBadAllocation, n, p.free, p.capacity)
	}
	if p.held != nil && p.held[tenant]-n < 0 {
		return fmt.Errorf("%w: tenant %q releasing %d of %d held", ErrBadAllocation, tenant, n, p.held[tenant])
	}
	p.free += n
	if p.held != nil {
		p.held[tenant] -= n
	}
	return nil
}

// validateAllocs applies the feasibility checks simulate performs before
// touching the pool: tokens inside [1, capacity] and inside the tenant's
// quota, non-negative times.
func validateAllocs(capacity int, quota Quota, allocs []Allocation) error {
	for _, a := range allocs {
		if a.Tokens < 1 || a.Tokens > capacity {
			return fmt.Errorf("%w: job %s requests %d tokens of capacity %d", ErrBadAllocation, a.ID, a.Tokens, capacity)
		}
		if q, ok := quota[a.Tenant]; ok && a.Tokens > q {
			return fmt.Errorf("%w: job %s requests %d tokens of tenant %q quota %d", ErrBadAllocation, a.ID, a.Tokens, a.Tenant, q)
		}
		if a.DurationSeconds < 0 || a.ArrivalSecond < 0 {
			return fmt.Errorf("%w: job %s has negative time", ErrBadAllocation, a.ID)
		}
		if a.DeadlineSecond < 0 {
			return fmt.Errorf("%w: job %s deadline %d", ErrBadDeadline, a.ID, a.DeadlineSecond)
		}
		if a.RetryTokens < 0 || a.RetryTokens > capacity || a.RetryDurationSeconds < 0 {
			return fmt.Errorf("%w: job %s retry leg %d tokens × %ds", ErrBadAllocation, a.ID, a.RetryTokens, a.RetryDurationSeconds)
		}
		if q, ok := quota[a.Tenant]; ok && a.RetryTokens > q {
			return fmt.Errorf("%w: job %s retry leg %d tokens of tenant %q quota %d", ErrBadAllocation, a.ID, a.RetryTokens, a.Tenant, q)
		}
	}
	return nil
}

// Stats summarizes a simulated schedule.
type Stats struct {
	MeanWaitSeconds   float64
	MaxWaitSeconds    int
	MakespanSeconds   int
	TotalTokenSeconds int
	// Retries counts jobs that overran their first slice and re-ran at
	// peak; RetryWasteTokenSeconds is the failed first attempts' cost
	// (already included in TotalTokenSeconds).
	Retries                int
	RetryWasteTokenSeconds int
	// DeadlineViolations counts jobs that drained after their deadline.
	DeadlineViolations int
}

// Summarize aggregates outcomes against their allocations. Both legs of
// a retried allocation count toward TotalTokenSeconds: the failed first
// slice is provisioned waste, the peak re-run is the recovery.
func Summarize(allocs []Allocation, outs []Outcome) Stats {
	var st Stats
	if len(outs) == 0 {
		return st
	}
	// Waits can each reach the makespan, so their sum over many jobs is the
	// one total the cost bound does not keep inside int; float64 adds them
	// exactly up to 2^53 and rounds, never wraps, beyond.
	var waitSum float64
	for i, o := range outs {
		waitSum += float64(o.WaitSeconds)
		if o.WaitSeconds > st.MaxWaitSeconds {
			st.MaxWaitSeconds = o.WaitSeconds
		}
		if o.EndSecond > st.MakespanSeconds {
			st.MakespanSeconds = o.EndSecond
		}
		if i < len(allocs) {
			a := allocs[i]
			st.TotalTokenSeconds += a.TokenSeconds()
			if a.retries() {
				st.Retries++
				st.RetryWasteTokenSeconds += a.Tokens * a.DurationSeconds
			}
			if a.DeadlineSecond > 0 && o.EndSecond > a.DeadlineSecond {
				st.DeadlineViolations++
			}
		}
	}
	st.MeanWaitSeconds = waitSum / float64(len(outs))
	return st
}

// ValidateSchedule sweeps a simulated schedule's event timeline and
// verifies it is feasible: every leg starts at or after its arrival,
// runs for exactly its predicted duration, and at every instant the
// running legs hold at most the pool capacity in total and at most each
// tenant's quota individually. This is the property-test oracle for all
// three strategies — it rebuilds occupancy from first principles and
// shares no code with simulate or its ledger.
func ValidateSchedule(capacity int, quota Quota, allocs []Allocation, outs []Outcome) error {
	if len(allocs) != len(outs) {
		return fmt.Errorf("%w: %d allocations vs %d outcomes", ErrBadAllocation, len(allocs), len(outs))
	}
	type edge struct {
		at     int
		delta  int
		tenant string
	}
	var edges []edge
	for i, a := range allocs {
		o := outs[i]
		if o.StartSecond < a.ArrivalSecond {
			return fmt.Errorf("%w: job %s started %d before arrival %d", ErrBadAllocation, a.ID, o.StartSecond, a.ArrivalSecond)
		}
		if o.WaitSeconds < 0 {
			return fmt.Errorf("%w: job %s waited %d", ErrBadAllocation, a.ID, o.WaitSeconds)
		}
		firstEnd := o.StartSecond + a.DurationSeconds
		if a.retries() {
			if o.RetryStartSecond < firstEnd {
				return fmt.Errorf("%w: job %s retried at %d before first leg ended %d", ErrBadAllocation, a.ID, o.RetryStartSecond, firstEnd)
			}
			if o.EndSecond != o.RetryStartSecond+a.RetryDurationSeconds {
				return fmt.Errorf("%w: job %s retry leg ends %d, want %d", ErrBadAllocation, a.ID, o.EndSecond, o.RetryStartSecond+a.RetryDurationSeconds)
			}
			edges = append(edges,
				edge{o.RetryStartSecond, a.RetryTokens, a.Tenant},
				edge{o.EndSecond, -a.RetryTokens, a.Tenant})
		} else if o.EndSecond != firstEnd {
			return fmt.Errorf("%w: job %s ends %d, want start %d + duration %d", ErrBadAllocation, a.ID, o.EndSecond, o.StartSecond, a.DurationSeconds)
		}
		edges = append(edges,
			edge{o.StartSecond, a.Tokens, a.Tenant},
			edge{firstEnd, -a.Tokens, a.Tenant})
	}
	// Sweep: releases before acquires at the same instant (a slot freed
	// at t is reusable at t, matching simulate's drain-then-admit).
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	inUse := 0
	held := map[string]int{}
	for _, e := range edges {
		inUse += e.delta
		held[e.tenant] += e.delta
		if inUse > capacity {
			return fmt.Errorf("%w: %d tokens in use at second %d exceeds capacity %d", ErrBadAllocation, inUse, e.at, capacity)
		}
		if q, ok := quota[e.tenant]; ok && held[e.tenant] > q {
			return fmt.Errorf("%w: tenant %q holds %d at second %d exceeding quota %d", ErrBadAllocation, e.tenant, held[e.tenant], e.at, q)
		}
		if inUse < 0 || held[e.tenant] < 0 {
			return fmt.Errorf("%w: negative occupancy at second %d", ErrBadAllocation, e.at)
		}
	}
	if inUse != 0 {
		return fmt.Errorf("%w: %d tokens still held after the last job drained", ErrBadAllocation, inUse)
	}
	return nil
}
