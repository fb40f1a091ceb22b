package plan

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Strategy selects how a plan's allocations are scheduled onto the pool.
type Strategy int

const (
	// StrategyFCFS admits jobs strictly in arrival order: the queue head
	// blocks everything behind it (SCOPE's guaranteed-token admission).
	StrategyFCFS Strategy = iota
	// StrategyBackfill packs the pool: jobs are scanned
	// earliest-deadline-first, then widest-first, and any job that fits
	// the free tokens (and its tenant quota) starts immediately —
	// smaller jobs backfill the gaps stragglers leave. The packed
	// schedule is kept only when it neither stretches the FCFS makespan
	// nor misses a feasible deadline FCFS met; otherwise the plan falls
	// back to the FCFS schedule, so backfill is never worse.
	StrategyBackfill
	// StrategyRetry allocates each job a sub-peak first slice (the
	// policy's choice); a job whose simulated true demand exceeds the
	// slice overruns, is killed at the slice's predicted end, and
	// re-queues at its peak estimate. Both attempts' token-seconds are
	// accounted — the throughput/waste trade of first-allocation sizing.
	StrategyRetry
)

// String names the strategy in its wire form.
func (s Strategy) String() string {
	switch s {
	case StrategyBackfill:
		return "backfill"
	case StrategyRetry:
		return "retry"
	default:
		return "fcfs"
	}
}

// ParseStrategy reads a wire/CLI strategy name. The empty string selects
// StrategyFCFS — the planner's original admission model.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fcfs":
		return StrategyFCFS, nil
	case "backfill":
		return StrategyBackfill, nil
	case "retry":
		return StrategyRetry, nil
	}
	return 0, fmt.Errorf("%w: %q (want fcfs, backfill or retry)", ErrBadStrategy, s)
}

// RetryDemand draws the simulated true token demand for a job under
// StrategyRetry: a deterministic, uniform-ish value in [1, peak] that is
// a pure function of (seed, job ID). A job overruns its first slice when
// the draw exceeds the slice, which is how the planner models resource
// needs that are "only known at runtime" without breaking same-seed
// reproducibility. peak < 1 (no peak estimate) returns 0: such jobs
// cannot overrun, there is nothing to retry up to.
func RetryDemand(seed uint64, id string, peak int) int {
	if peak < 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	x := h.Sum64() ^ seed
	// SplitMix64 finalizer scrambles the FNV/seed mix.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + int(x%uint64(peak))
}
