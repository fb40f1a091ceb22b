// Planner soak: the scale-and-determinism scenario for the cluster
// planner. It boots a quick-trained serving stack in-process, pushes on
// the order of a million simulated jobs through PlanLocal from seeded
// parallel workers, and proves the paper's cluster-level claim: the
// Optimal allocation policy provisions measurably fewer token-seconds
// than the Peak-allocation baseline and the AutoToken (§6.2) baseline
// without giving up throughput (the optimal makespan never exceeds the
// peak makespan on the same batch).
//
// It is also the differential harness for the scheduling strategies:
// every batch additionally runs through backfill bin-packing and
// first-allocation retry lanes over the identical jobs, asserting per
// plan that backfill never costs more token-seconds or stretches the
// makespan versus FCFS, that retry's two-attempt accounting matches the
// closed form, and that every lane's schedule is feasible — capacity and
// per-tenant quotas respected at every instant of the event timeline
// (plan.ValidateSchedule). A few plans additionally travel the real
// POST /v1/plan wire (one per strategy) and must match the in-process
// result event for event. Every allocation decision folds into an
// FNV-1a fingerprint, so two runs with the same seed must agree bit for
// bit.
package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"

	"tasq/internal/parallel"
	"tasq/internal/plan"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
)

// PlanSoakConfig parameterizes one planner soak run.
type PlanSoakConfig struct {
	// Seed fixes the training set, every plan's job sample and arrivals.
	Seed int64
	// Plans is the number of planned batches (0 = 1000, or 60 when Short).
	Plans int
	// Workers sizes the planning worker pool (0 = 4). The result is
	// worker-count independent: per-plan outcomes are folded in plan order.
	Workers int
	// Short trims the run for -short CI.
	Short bool
	// Logf receives progress lines (optional).
	Logf func(format string, args ...any)
}

// PlanSoakResult aggregates a soak run; Fingerprint is the same-seed
// reproducibility artifact.
type PlanSoakResult struct {
	// Plans and Jobs count the planned batches and jobs across the run.
	Plans int
	Jobs  int
	// OptimalTokenSeconds / PeakTokenSeconds / AutoTokenSeconds are the
	// cluster-wide provisioned costs of the three allocation lanes over
	// identical batches.
	OptimalTokenSeconds int64
	PeakTokenSeconds    int64
	AutoTokenSeconds    int64
	// OptimalMakespanSeconds / PeakMakespanSeconds are summed per-plan
	// makespans; optimal ≤ peak is the throughput claim.
	OptimalMakespanSeconds int64
	PeakMakespanSeconds    int64
	// BackfillTokenSeconds / BackfillMakespanSeconds aggregate the
	// backfill bin-packing lane (same allocations as the Optimal lane,
	// packed schedule); backfill ≤ optimal on both is the differential
	// claim, enforced per plan.
	BackfillTokenSeconds    int64
	BackfillMakespanSeconds int64
	// BackfillFellBack counts plans where the packed schedule would have
	// regressed FCFS and the planner kept the FCFS schedule.
	BackfillFellBack int64
	// RetryTokenSeconds / RetryWasteTokenSeconds / Retries aggregate the
	// first-allocation retry lane: total two-attempt cost, the failed
	// first slices' share, and how many jobs overran.
	RetryTokenSeconds      int64
	RetryWasteTokenSeconds int64
	Retries                int64
	// SavedVsPeakFraction / SavedVsAutoFraction are the relative savings
	// of the Optimal lane against each baseline.
	SavedVsPeakFraction float64
	SavedVsAutoFraction float64
	// Fingerprint folds every allocation decision of every lane, in plan
	// order — equal seeds must yield equal fingerprints.
	Fingerprint uint64
	// HTTPPlans counts the plans verified over the wire.
	HTTPPlans int
}

// planLane is one allocation strategy driven over a batch.
type planLane struct {
	policy   string
	model    string
	strategy string
}

// soakLanes are the compared strategies. Order matters: the fingerprint
// folds lanes in this order, and the differential assertions index into
// it.
var soakLanes = []planLane{
	{policy: "optimal"},                       // TASQ: trained-model PCC, sub-peak optimal, FCFS
	{policy: "peak"},                          // Peak-allocation baseline
	{policy: "optimal", model: "AutoToken"},   // AutoToken-driven (§6.2) baseline
	{policy: "optimal", strategy: "backfill"}, // packed schedule, same allocations as lane 0
	{policy: "optimal", strategy: "retry"},    // first-allocation + peak re-run
}

// Lane indices into soakLanes.
const (
	laneOptimal = iota
	lanePeak
	laneAuto
	laneBackfill
	laneRetry
)

// soakStrategies cycles the HTTP cross-check plans through every
// scheduling strategy.
var soakStrategies = []string{"fcfs", "backfill", "retry"}

// planOutcome is one lane's aggregate over one plan.
type planOutcome struct {
	cost     int64
	makespan int64
	hash     uint64
	waste    int64
	retries  int64
	fellBack bool
}

// hashPlan fingerprints a plan response: every job's allocation and
// schedule (both attempts), in order.
func hashPlan(resp *serve.PlanResponse) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte(resp.Policy))
	h.Write([]byte(resp.Strategy))
	word(resp.CapacityTokens)
	word(resp.TotalTokenSeconds)
	word(resp.MakespanSeconds)
	word(resp.Retries)
	word(resp.RetryWasteTokenSeconds)
	word(resp.DeadlineViolations)
	if resp.FellBackToFCFS {
		word(1)
	}
	for _, j := range resp.Jobs {
		h.Write([]byte(j.ID))
		h.Write([]byte(j.Tenant))
		word(j.Tokens)
		word(j.PredictedRuntimeSeconds)
		word(j.StartSecond)
		word(j.WaitSeconds)
		word(j.EndSecond)
		word(j.DeadlineSecond)
		word(j.Attempts)
		word(j.RetryTokens)
		word(j.RetryRuntimeSeconds)
		word(j.RetryStartSecond)
	}
	return h.Sum64()
}

// soakRequest builds plan p's batch: jobs sampled (with replacement) from
// the covered pool, a bursty arrival schedule, round-robin tenants under
// concurrent-token quotas, and an SLA deadline on a slice of the jobs —
// all a pure function of (seed, p).
func soakRequest(seed int64, p int, pool []*scopesim.Job, jobs int) *serve.PlanRequest {
	rng := workerRNG(seed, p)
	req := &serve.PlanRequest{
		CapacityTokens:  planSoakCapacity,
		Jobs:            make([]*scopesim.Job, jobs),
		ArrivalSeconds:  make([]float64, jobs),
		DeadlineSeconds: make([]int, jobs),
		Tenants:         make([]string, jobs),
		// Three tenants share the pool; each may hold at most 60% of it
		// at once, so the quota binds when a tenant's jobs cluster.
		Quotas: map[string]int{
			"tenant-a": planSoakCapacity * 3 / 5,
			"tenant-b": planSoakCapacity * 3 / 5,
			"tenant-c": planSoakCapacity * 3 / 5,
		},
	}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	arrival := 0
	for i := range req.Jobs {
		req.Jobs[i] = pool[rng.Intn(len(pool))]
		req.ArrivalSeconds[i] = float64(arrival)
		req.Tenants[i] = tenants[rng.Intn(len(tenants))]
		if i%8 == 0 {
			// An SLA holder: generous but finite slack past its arrival.
			req.DeadlineSeconds[i] = arrival + 512 + rng.Intn(8192)
		}
		arrival += rng.Intn(3) // bursty: ~1s mean inter-arrival keeps a backlog
	}
	return req
}

// validatePlanResponse rebuilds the schedule a response describes and
// sweeps its event timeline: capacity and per-tenant quotas respected at
// every instant, every leg feasible, and the retry lanes' two-attempt
// accounting matching the closed form Σ first + Σ overrun peak legs.
func validatePlanResponse(req *serve.PlanRequest, resp *serve.PlanResponse) error {
	allocs := make([]plan.Allocation, len(resp.Jobs))
	outs := make([]plan.Outcome, len(resp.Jobs))
	total, waste, retries := 0, 0, 0
	for i, j := range resp.Jobs {
		arrival := 0
		if len(req.ArrivalSeconds) > 0 {
			arrival = int(math.Floor(req.ArrivalSeconds[i]))
		}
		allocs[i] = plan.Allocation{
			ID:                   j.ID,
			ArrivalSecond:        arrival,
			Tokens:               j.Tokens,
			DurationSeconds:      j.PredictedRuntimeSeconds,
			Tenant:               j.Tenant,
			DeadlineSecond:       j.DeadlineSecond,
			RetryTokens:          j.RetryTokens,
			RetryDurationSeconds: j.RetryRuntimeSeconds,
		}
		outs[i] = plan.Outcome{
			ID:               j.ID,
			StartSecond:      j.StartSecond,
			WaitSeconds:      j.WaitSeconds,
			EndSecond:        j.EndSecond,
			RetryStartSecond: j.RetryStartSecond,
		}
		total += j.Tokens * j.PredictedRuntimeSeconds
		if j.Attempts == 2 {
			retries++
			waste += j.Tokens * j.PredictedRuntimeSeconds
			total += j.RetryTokens * j.RetryRuntimeSeconds
		}
	}
	if total != resp.TotalTokenSeconds {
		return fmt.Errorf("closed-form cost %d != reported %d", total, resp.TotalTokenSeconds)
	}
	if waste != resp.RetryWasteTokenSeconds || retries != resp.Retries {
		return fmt.Errorf("closed-form retry accounting (%d waste, %d retries) != reported (%d, %d)",
			waste, retries, resp.RetryWasteTokenSeconds, resp.Retries)
	}
	return plan.ValidateSchedule(req.CapacityTokens, plan.Quota(req.Quotas), allocs, outs)
}

// checkLanes applies the per-plan differential claims across one batch's
// lanes.
func checkLanes(i int, lanes []planOutcome) error {
	opt, peak := lanes[laneOptimal], lanes[lanePeak]
	// Cluster claims: the Optimal lane must beat Peak on cost without
	// losing throughput on the identical batch.
	if opt.cost >= peak.cost {
		return fmt.Errorf("plan %d: optimal cost %d ≥ peak cost %d", i, opt.cost, peak.cost)
	}
	if opt.makespan > peak.makespan {
		return fmt.Errorf("plan %d: optimal makespan %d exceeds peak %d (throughput regression)",
			i, opt.makespan, peak.makespan)
	}
	// Differential claims: backfill packs the same allocations, so it
	// can never cost more, and the fallback guard means it never
	// stretches the makespan either.
	bf := lanes[laneBackfill]
	if bf.cost > opt.cost {
		return fmt.Errorf("plan %d: backfill cost %d exceeds FCFS %d", i, bf.cost, opt.cost)
	}
	if bf.makespan > opt.makespan {
		return fmt.Errorf("plan %d: backfill makespan %d exceeds FCFS %d", i, bf.makespan, opt.makespan)
	}
	// Retry pays the same first slices plus the overrun re-runs: its
	// cost is FCFS plus a nonnegative waste term.
	rt := lanes[laneRetry]
	if rt.cost < opt.cost {
		return fmt.Errorf("plan %d: retry cost %d below its own first-slice cost %d", i, rt.cost, opt.cost)
	}
	if rt.waste < 0 || rt.cost-opt.cost < rt.waste {
		return fmt.Errorf("plan %d: retry waste %d inconsistent with cost delta %d", i, rt.waste, rt.cost-opt.cost)
	}
	return nil
}

// The plan soak's fixed shape: 1000-job batches against a 2000-token
// pool, and three plans additionally driven through the real POST
// /v1/plan endpoint and cross-checked against PlanLocal, cycling through
// the three scheduling strategies.
const (
	planSoakJobs      = 1000
	planSoakCapacity  = 2000
	planSoakHTTPPlans = 3
)

// RunPlanSoak executes one planner soak end to end. Any invariant
// violation surfaces as an error.
func RunPlanSoak(cfg PlanSoakConfig) (*PlanSoakResult, error) {
	plans := 1000
	if cfg.Short {
		plans = 60
	}
	orDefault(&cfg.Plans, plans)
	orDefault(&cfg.Workers, 4)
	logf := quiet(cfg.Logf)

	// ---- Boot: quick-train over the seeded workload, serve in-process.
	p, recs, _, err := quickTrain(cfg.Seed, 40)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(p)
	if err != nil {
		return nil, err
	}

	// The job pool is the recurring (templated) subset of the training
	// set, so the AutoToken baseline covers every sampled job.
	var pool []*scopesim.Job
	for _, rec := range recs {
		if rec.Job.Template != "" {
			pool = append(pool, rec.Job)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("plan soak: no recurring jobs in the seeded workload")
	}
	logf("harness: plan soak start (seed=%d plans=%d jobs/plan=%d pool=%d workers=%d lanes=%d)",
		cfg.Seed, cfg.Plans, planSoakJobs, len(pool), cfg.Workers, len(soakLanes))

	// ---- Bulk lanes: seeded workers, per-plan outcomes folded in order.
	outcomes := make([][]planOutcome, cfg.Plans) // [plan][lane]
	err = parallel.ForEach(context.Background(), cfg.Plans, cfg.Workers, func(i int) error {
		req := soakRequest(cfg.Seed, i, pool, planSoakJobs)
		lanes := make([]planOutcome, len(soakLanes))
		for li, lane := range soakLanes {
			req.Policy, req.Model, req.Strategy = lane.policy, lane.model, lane.strategy
			resp, err := srv.PlanLocal(req)
			if err != nil {
				return fmt.Errorf("plan %d lane %s/%s/%s: %w", i, lane.policy, lane.model, lane.strategy, err)
			}
			if err := validatePlanResponse(req, resp); err != nil {
				return fmt.Errorf("plan %d lane %s/%s/%s: infeasible schedule: %w",
					i, lane.policy, lane.model, lane.strategy, err)
			}
			lanes[li] = planOutcome{
				cost:     int64(resp.TotalTokenSeconds),
				makespan: int64(resp.MakespanSeconds),
				hash:     hashPlan(resp),
				waste:    int64(resp.RetryWasteTokenSeconds),
				retries:  int64(resp.Retries),
				fellBack: resp.FellBackToFCFS,
			}
		}
		outcomes[i] = lanes
		return checkLanes(i, lanes)
	})
	if err != nil {
		return nil, err
	}

	res := &PlanSoakResult{Plans: cfg.Plans, Jobs: cfg.Plans * planSoakJobs}
	fold := fnv.New64a()
	var buf [8]byte
	for _, lanes := range outcomes {
		res.OptimalTokenSeconds += lanes[laneOptimal].cost
		res.PeakTokenSeconds += lanes[lanePeak].cost
		res.AutoTokenSeconds += lanes[laneAuto].cost
		res.OptimalMakespanSeconds += lanes[laneOptimal].makespan
		res.PeakMakespanSeconds += lanes[lanePeak].makespan
		res.BackfillTokenSeconds += lanes[laneBackfill].cost
		res.BackfillMakespanSeconds += lanes[laneBackfill].makespan
		if lanes[laneBackfill].fellBack {
			res.BackfillFellBack++
		}
		res.RetryTokenSeconds += lanes[laneRetry].cost
		res.RetryWasteTokenSeconds += lanes[laneRetry].waste
		res.Retries += lanes[laneRetry].retries
		for _, lane := range lanes {
			binary.LittleEndian.PutUint64(buf[:], lane.hash)
			fold.Write(buf[:])
		}
	}
	res.Fingerprint = fold.Sum64()
	res.SavedVsPeakFraction = plan.SavedVsPeak(res.OptimalTokenSeconds, res.PeakTokenSeconds)
	res.SavedVsAutoFraction = plan.SavedVsPeak(res.OptimalTokenSeconds, res.AutoTokenSeconds)

	// ---- Wire proof: a few plans travel the real endpoint — one per
	// scheduling strategy — and must match the in-process result event
	// for event. The wire batches are clamped so a plan of full workload
	// jobs stays inside the serving layer's 16 MiB request-body bound.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := serve.NewClient(ts.URL)
	for i := 0; i < planSoakHTTPPlans; i++ {
		req := soakRequest(cfg.Seed, i, pool, min(planSoakJobs, 200))
		req.Policy = "optimal"
		req.Strategy = soakStrategies[i%len(soakStrategies)]
		wire, err := client.Plan(req)
		if err != nil {
			return nil, fmt.Errorf("HTTP plan %d (%s): %w", i, req.Strategy, err)
		}
		local, err := srv.PlanLocal(req)
		if err != nil {
			return nil, fmt.Errorf("local re-plan %d (%s): %w", i, req.Strategy, err)
		}
		if wh, lh := hashPlan(wire), hashPlan(local); wh != lh {
			return nil, fmt.Errorf("HTTP plan %d (%s) diverges from PlanLocal: %016x vs %016x", i, req.Strategy, wh, lh)
		}
		res.HTTPPlans++
	}

	logf("harness: plan soak done: %d jobs, optimal %d vs peak %d vs autotoken %d token-seconds (saved %.1f%% / %.1f%%); "+
		"backfill makespan %d vs fcfs %d (%d fallbacks); retry %d token-seconds (%d retries, %d waste)",
		res.Jobs, res.OptimalTokenSeconds, res.PeakTokenSeconds, res.AutoTokenSeconds,
		res.SavedVsPeakFraction*100, res.SavedVsAutoFraction*100,
		res.BackfillMakespanSeconds, res.OptimalMakespanSeconds, res.BackfillFellBack,
		res.RetryTokenSeconds, res.Retries, res.RetryWasteTokenSeconds)
	return res, nil
}
