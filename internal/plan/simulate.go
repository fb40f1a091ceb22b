package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"tasq/internal/eventq"
)

// SimulateFCFSQuota runs the allocations through a fixed-capacity token
// pool with FCFS admission: a job is admitted when its full token request
// is free and its tenant's concurrently held tokens would stay within
// quota (nil: no quotas); later arrivals cannot jump the queue (no
// backfilling), which models SCOPE's guaranteed-token admission. Arrival
// ties are broken by input order (stable), and outcomes are returned in
// input order. Retry legs on the allocations are ignored — SimulateRetry
// honors them.
func SimulateFCFSQuota(capacity int, quota Quota, allocs []Allocation) ([]Outcome, error) {
	return simulate(capacity, quota, allocs, fcfs)
}

// SimulateRetry runs the allocations through FCFS admission where an
// allocation carrying a retry leg occupies the pool twice: the first
// slice runs to its predicted end, is detected as overrun, and the peak
// leg re-enters the queue at that instant (ties with fresh first legs
// break in favor of the fresh legs, then input order). Outcomes are in
// input order; a retried job's WaitSeconds accumulates both queue waits.
func SimulateRetry(capacity int, quota Quota, allocs []Allocation) ([]Outcome, error) {
	return simulate(capacity, quota, allocs, retry)
}

// SimulateBackfill packs the allocations onto the pool: at every event
// time (an arrival or a release) the waiting jobs are scanned in packing
// order — deadline jobs first by earliest deadline, then the rest widest
// first, ties by arrival then input order — and every job that fits the
// free tokens and its tenant quota starts immediately. Unlike FCFS, a
// blocked head never starves the pool. Retry legs are ignored. Outcomes
// are returned in input order.
//
// Callers wanting the no-regression guarantee (never a longer makespan
// and never a missed deadline FCFS met) should go through Build with
// StrategyBackfill, which compares against the FCFS schedule and keeps
// the better one.
func SimulateBackfill(capacity int, quota Quota, allocs []Allocation) ([]Outcome, error) {
	return simulate(capacity, quota, allocs, backfill)
}

// discipline is everything that tells the schedulers sharing simulate
// apart: the order waiting legs are offered the pool in, whether a leg
// that does not fit blocks the ones behind it, and whether a first slice
// that overran queues its peak leg when it ends.
type discipline struct {
	before   func(s *sim, x, y int) bool
	blocking bool
	retries  bool
	// skip, if set, is given the waiting legs from a misfit on and counts
	// it and the legs behind it that before's order alone shows to be wider
	// than free, so that the walk passes over them unvisited.
	skip func(s *sim, w []int, free int) int
}

var (
	fcfs     = discipline{before: byArrival, blocking: true}
	retry    = discipline{before: byArrival, blocking: true, retries: true}
	backfill = discipline{before: byDeadlineThenWidth, skip: tooWide}
)

// sim is one simulation as the orderings see it. A leg is one claim on the
// pool and is known by an int: leg j < len(allocs) is job j's first slice,
// leg len(allocs)+j the peak re-run of that slice.
type sim struct {
	allocs []Allocation
	out    []Outcome
}

// claim is what leg id asks of the pool: its job's allocation, and the
// tokens and seconds of this slice of it.
func (s *sim) claim(id int) (a *Allocation, tokens, seconds int) {
	if n := len(s.allocs); id >= n {
		a = &s.allocs[id-n]
		return a, a.RetryTokens, a.RetryDurationSeconds
	}
	a = &s.allocs[id]
	return a, a.Tokens, a.DurationSeconds
}

// arrival is the second leg id joins the queue: its job's arrival, or for
// a peak re-run the second the first slice ends.
func (s *sim) arrival(id int) int {
	if n := len(s.allocs); id >= n {
		return s.out[id-n].StartSecond + s.allocs[id-n].DurationSeconds
	}
	return s.allocs[id].ArrivalSecond
}

// byArrival is FCFS order: by arrival, then by leg number, which puts a
// second's fresh arrivals ahead of the peak legs queued at it and each in
// input order.
func byArrival(s *sim, x, y int) bool {
	if ax, ay := s.arrival(x), s.arrival(y); ax != ay {
		return ax < ay
	}
	return x < y
}

// byDeadlineThenWidth is packing order: SLA holders first (earliest
// deadline), then widest first so big jobs anchor the packing and small
// ones fill the gaps, ties in FCFS order.
func byDeadlineThenWidth(s *sim, x, y int) bool {
	a, tx, _ := s.claim(x)
	b, ty, _ := s.claim(y)
	if (a.DeadlineSecond > 0) != (b.DeadlineSecond > 0) {
		return a.DeadlineSecond > 0
	}
	if a.DeadlineSecond != b.DeadlineSecond {
		return a.DeadlineSecond < b.DeadlineSecond
	}
	if tx != ty {
		return tx > ty
	}
	return byArrival(s, x, y)
}

// tooWide is packing order's skip: past the SLA holders legs wait widest
// first, so the ones wider than free are a prefix found by bisection.
func tooWide(s *sim, w []int, free int) int {
	if a, _, _ := s.claim(w[0]); a.DeadlineSecond > 0 {
		return 1
	}
	return max(1, sort.Search(len(w), func(i int) bool {
		_, tokens, _ := s.claim(w[i])
		return tokens <= free
	}))
}

// enqueue inserts leg id among the waiting legs, which are in d's order,
// and keeps them so.
func (d discipline) enqueue(s *sim, w []int, id int) []int {
	at := len(w)
	if at > 0 && d.before(s, id, w[at-1]) { // else the common case under FCFS: legs arrive in order
		at = sort.Search(at, func(i int) bool { return d.before(s, id, w[i]) })
	}
	return slices.Insert(w, at, id)
}

// simulate is the one event loop behind every Simulate entry point. Time
// advances to the next arrival or release; the releases due by then drain,
// and a first slice that overran queues its peak leg as it does; the first
// slices that have arrived join the waiting legs in the discipline's
// order; and one admission rule runs over them: walk the waiting legs in
// order, start every leg that fits the pool and its tenant's quota, and
// stop at the first that does not iff the discipline is head-blocking. A
// slot freed at second t is reusable at t; a leg of zero seconds releases
// at the second it starts, which the next turn of the loop drains without
// advancing time. The loop ends when nothing is left to arrive, wait or
// run, so every claim has gone back through the ledger's checks.
func simulate(capacity int, quota Quota, allocs []Allocation, d discipline) ([]Outcome, error) {
	pool, err := NewPoolQuota(capacity, quota)
	if err != nil {
		return nil, err
	}
	if err := validateAllocs(capacity, quota, allocs); err != nil {
		return nil, err
	}
	// Arrivals are sorted once (stable: ties keep input order) and read
	// through the cursor next.
	n := len(allocs)
	arrivals := make([]event, n)
	for i := range allocs {
		arrivals[i] = event{at: allocs[i].ArrivalSecond, leg: i}
	}
	slices.SortStableFunc(arrivals, func(x, y event) int { return cmp.Compare(x.at, y.at) })

	s := &sim{allocs: allocs, out: make([]Outcome, n)}
	waiting := make([]int, 0, n)   // arrived legs, in d's order
	running := eventq.New[int](16) // started legs at their release; sized past append's first regrowths
	for next, now := 0, 0; next < n || len(waiting) > 0 || running.Len() > 0; {
		switch {
		case next < n && (running.Len() == 0 || arrivals[next].at < running.At()):
			now = arrivals[next].at
		case running.Len() > 0:
			now = running.At()
		default:
			return nil, fmt.Errorf("%w: %d legs waiting with %d free tokens and no future event", ErrStarved, len(waiting), pool.Free())
		}
		for running.Len() > 0 && running.At() <= now {
			_, id := running.Pop()
			a, tokens, _ := s.claim(id)
			if err := pool.ReleaseTenant(a.Tenant, tokens); err != nil {
				return nil, err
			}
			if d.retries && id < n && a.retries() {
				// The overrun is detected as the first slice drains.
				waiting = d.enqueue(s, waiting, n+id)
			}
		}
		for ; next < n && arrivals[next].at <= now; next++ {
			waiting = d.enqueue(s, waiting, arrivals[next].leg)
		}

		// Admission. Legs passed over are compacted to the front as the
		// walk goes; a blocking walk passes over none, so what it started
		// is a prefix and is dropped without moving the legs behind it.
		kept, i := 0, 0
		for i < len(waiting) {
			id := waiting[i]
			a, tokens, seconds := s.claim(id)
			if !pool.tryAcquire(a.Tenant, tokens) {
				if d.blocking {
					break
				}
				pass := 1
				if d.skip != nil {
					pass = d.skip(s, waiting[i:], pool.Free())
				}
				if kept < i {
					copy(waiting[kept:], waiting[i:i+pass])
				}
				kept, i = kept+pass, i+pass
				continue
			}
			i++
			running.Push(now+seconds, id)
			if id < n {
				s.out[id] = Outcome{ID: a.ID, StartSecond: now, WaitSeconds: now - a.ArrivalSecond, EndSecond: now + seconds}
				continue
			}
			o := &s.out[id-n]
			o.WaitSeconds += now - s.arrival(id)
			o.RetryStartSecond, o.EndSecond = now, now+seconds
		}
		if kept == 0 {
			waiting = waiting[i:]
		} else {
			waiting = append(waiting[:kept], waiting[i:]...)
		}
	}
	return s.out, nil
}

// event is a leg arriving at second at.
type event struct {
	at, leg int
}
