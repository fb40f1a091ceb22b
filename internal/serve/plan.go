package serve

import (
	"context"
	"fmt"
	"net/http"

	"tasq/internal/obs"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/scopesim"
)

// DefaultMaxPlanJobs is the per-request job cap on POST /v1/plan; an
// in-process PlanLocal has none. The request-body bound binds first for
// jobs of the usual size: at about 8.9 KB a job, 16 MiB holds about 1,880
// of them (TestWireSize).
const DefaultMaxPlanJobs = 4096

// planFanOutMinJobs is the plan size from which curve resolution fans out
// over the worker pool. A warm lookup costs about a microsecond, so below
// a few dozen jobs starting and joining goroutines costs more than the
// lookups they would share; smaller plans resolve inline.
const planFanOutMinJobs = 64

// PlanRequest asks the cluster planner to allocate a batch of jobs
// against a shared token pool: N compile-time job descriptions in,
// per-job token allocations plus predicted makespan, cost and
// queue-wait out. Planning is a pure function of the request — nothing
// is admitted to any real queue.
type PlanRequest struct {
	// Jobs are the compile-time job descriptions to allocate.
	Jobs []*scopesim.Job `json:"jobs"`
	// CapacityTokens is the pool's guaranteed-token capacity.
	CapacityTokens int `json:"capacity_tokens"`
	// Policy selects the allocation strategy: "default", "peak",
	// "adaptive-peak" or "optimal" (the default — TASQ's sub-peak
	// allocation from each job's predicted PCC).
	Policy string `json:"policy,omitempty"`
	// Strategy selects the scheduling strategy: "fcfs" (the default —
	// strict arrival-order admission), "backfill" (deadline-aware
	// bin-packing that never regresses the FCFS makespan or a feasible
	// deadline) or "retry" (sub-peak first slice, peak re-run on
	// simulated overrun, both attempts accounted). Unknown names are
	// rejected with 400.
	Strategy string `json:"strategy,omitempty"`
	// Model names the predictor whose PCC predictions drive the plan
	// (any registered name, e.g. "NN", "xgboost-pl", "AutoToken"); empty
	// follows the server's fallback policy. Unknown names are rejected
	// with 400, known-but-untrained predictors with 409.
	Model string `json:"model,omitempty"`
	// Threshold is the §2.1 optimal-allocation termination threshold
	// (default pcc.DefaultThreshold). Negative values are rejected.
	Threshold float64 `json:"threshold,omitempty"`
	// ArrivalSeconds optionally gives each job's queue-arrival time, one
	// entry per job; omitted means every job arrives at second 0.
	// Fractional arrivals floor to their containing second; NaN/±Inf and
	// negative values are rejected with 400.
	ArrivalSeconds []float64 `json:"arrival_seconds,omitempty"`
	// DeadlineSeconds optionally gives each job's absolute SLA deadline
	// in simulated seconds, one entry per job (0 = no deadline);
	// negative entries are rejected with 400.
	DeadlineSeconds []int `json:"deadline_seconds,omitempty"`
	// Tenants optionally attributes each job to a tenant, one entry per
	// job ("" = unquoted).
	Tenants []string `json:"tenants,omitempty"`
	// Quotas caps each named tenant's concurrently held tokens;
	// non-positive quotas are rejected with 400.
	Quotas map[string]int `json:"quotas,omitempty"`
}

// PlanJobJSON is one job's slot in the plan, in request order.
type PlanJobJSON struct {
	ID string `json:"id"`
	// Model is the predictor whose curve priced this job.
	Model string `json:"model"`
	// Tokens is the allocation the policy chose (the first slice under
	// the retry strategy).
	Tokens int `json:"tokens"`
	// PredictedRuntimeSeconds is the curve's run time at that allocation.
	PredictedRuntimeSeconds int `json:"predicted_runtime_seconds"`
	// StartSecond/WaitSeconds/EndSecond are the simulated schedule; a
	// retried job's wait accumulates both queue waits and its end is the
	// peak re-run's drain.
	StartSecond int `json:"start_second"`
	WaitSeconds int `json:"wait_seconds"`
	EndSecond   int `json:"end_second"`
	// Tenant and DeadlineSecond echo the request's per-job attributes.
	Tenant         string `json:"tenant,omitempty"`
	DeadlineSecond int    `json:"deadline_second,omitempty"`
	// Attempts is 1, or 2 when the retry strategy re-ran the job at peak
	// after a simulated first-slice overrun; RetryTokens,
	// RetryRuntimeSeconds and RetryStartSecond describe the second leg.
	Attempts            int `json:"attempts"`
	RetryTokens         int `json:"retry_tokens,omitempty"`
	RetryRuntimeSeconds int `json:"retry_runtime_seconds,omitempty"`
	RetryStartSecond    int `json:"retry_start_second,omitempty"`
}

// PlanResponse is the planner's answer: the per-job schedule plus the
// aggregate cost and queueing picture, with the Peak-allocation baseline
// cost alongside so the savings are visible on the wire.
type PlanResponse struct {
	// ModelVersion is the registry version of the pipeline that scored
	// the plan (0 = unversioned).
	ModelVersion int    `json:"model_version,omitempty"`
	Policy       string `json:"policy"`
	// Strategy echoes the scheduling strategy the plan used.
	Strategy string `json:"strategy"`
	// CapacityTokens echoes the pool capacity planned against.
	CapacityTokens int           `json:"capacity_tokens"`
	Jobs           []PlanJobJSON `json:"jobs"`
	// MakespanSeconds is when the last job drains from the pool.
	MakespanSeconds int     `json:"makespan_seconds"`
	MeanWaitSeconds float64 `json:"mean_wait_seconds"`
	MaxWaitSeconds  int     `json:"max_wait_seconds"`
	// TotalTokenSeconds is the plan's provisioned cost Σ tokens×runtime,
	// including both attempts of every retried job.
	TotalTokenSeconds int `json:"total_token_seconds"`
	// PeakBaselineTokenSeconds is what the Peak-allocation policy would
	// have provisioned for the same jobs and curves; Saved = Peak −
	// Total (negative when the chosen policy provisions more than peak).
	PeakBaselineTokenSeconds int `json:"peak_baseline_token_seconds"`
	SavedTokenSeconds        int `json:"saved_token_seconds"`
	// Retries counts jobs that overran their first slice;
	// RetryWasteTokenSeconds is the failed attempts' provisioned cost
	// (already inside TotalTokenSeconds).
	Retries                int `json:"retries,omitempty"`
	RetryWasteTokenSeconds int `json:"retry_waste_token_seconds,omitempty"`
	// DeadlineViolations counts jobs that drained after their deadline.
	DeadlineViolations int `json:"deadline_violations,omitempty"`
	// FellBackToFCFS reports that the backfill strategy's packed
	// schedule would have regressed the FCFS schedule (makespan or a
	// feasible deadline), so the plan kept FCFS.
	FellBackToFCFS bool `json:"fell_back_to_fcfs,omitempty"`
}

// planStrategyMetrics is one strategy's slice of the tasq_plan_* series.
type planStrategyMetrics struct {
	ok, rejected, failed *obs.Counter
	jobs, saved, waste   *obs.Counter
}

// planMetricStrategies are the label values the planner pre-registers:
// the three strategies plus "invalid" for requests rejected before (or
// at) strategy parsing.
const planInvalidStrategy = "invalid"

// initPlanMetrics registers the tasq_plan_* series, one set per
// scheduling strategy.
func (s *Server) initPlanMetrics() {
	s.reg.SetHelp(obs.MetricPlanRequests, "Plans served, by outcome (ok, rejected, failed) and scheduling strategy.")
	s.reg.SetHelp(obs.MetricPlanJobs, "Jobs allocated through the cluster planner, by scheduling strategy.")
	s.reg.SetHelp(obs.MetricPlanSavedTokenSecs, "Token-seconds the planned policy saved vs. the Peak-allocation baseline (clamped at 0 per plan), by scheduling strategy.")
	s.reg.SetHelp(obs.MetricPlanRetryWasteSecs, "Token-seconds provisioned for failed first slices under the retry strategy.")
	s.planMet = make(map[string]*planStrategyMetrics, 4)
	for _, strat := range []string{
		plan.StrategyFCFS.String(), plan.StrategyBackfill.String(), plan.StrategyRetry.String(), planInvalidStrategy,
	} {
		s.planMet[strat] = &planStrategyMetrics{
			ok:       s.reg.Counter(obs.MetricPlanRequests, "outcome", "ok", "strategy", strat),
			rejected: s.reg.Counter(obs.MetricPlanRequests, "outcome", "rejected", "strategy", strat),
			failed:   s.reg.Counter(obs.MetricPlanRequests, "outcome", "failed", "strategy", strat),
			jobs:     s.reg.Counter(obs.MetricPlanJobs, "strategy", strat),
			saved:    s.reg.Counter(obs.MetricPlanSavedTokenSecs, "strategy", strat),
			waste:    s.reg.Counter(obs.MetricPlanRetryWasteSecs, "strategy", strat),
		}
	}
	s.reg.SetHelp(obs.MetricPlanMakespanSeconds, "Predicted makespan of served plans, in simulated seconds.")
	s.planMakespan = s.reg.Histogram(obs.MetricPlanMakespanSeconds,
		[]float64{60, 300, 900, 3600, 14400, 43200, 86400, 4 * 86400})
	s.reg.SetHelp(obs.MetricPlanQueueWaitSeconds, "Predicted mean queue wait of served plans, in simulated seconds.")
	s.planWait = s.reg.Histogram(obs.MetricPlanQueueWaitSeconds,
		[]float64{1, 10, 60, 300, 1800, 7200, 43200})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req PlanRequest
	if !decodeBody(w, r, &req) {
		s.planMet[planInvalidStrategy].rejected.Inc()
		return
	}
	if len(req.Jobs) > DefaultMaxPlanJobs {
		s.planMetrics(req.Strategy).rejected.Inc()
		http.Error(w, fmt.Sprintf("serve: plan of %d jobs exceeds the per-request cap %d", len(req.Jobs), DefaultMaxPlanJobs), http.StatusBadRequest)
		return
	}
	resp, err := s.PlanLocal(&req)
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// planMetrics returns the tasq_plan_* series of a request's strategy, or
// the "invalid" series for a strategy that does not parse.
func (s *Server) planMetrics(strategy string) *planStrategyMetrics {
	if st, err := plan.ParseStrategy(strategy); err == nil {
		return s.planMet[st.String()]
	}
	return s.planMet[planInvalidStrategy]
}

// PlanLocal plans one request in process, bypassing HTTP — the /v1/plan
// path after decoding and the job cap, and the entry point for embedders
// and the planner soak, which pushes ~10⁶ simulated jobs through here
// without paying for JSON. It validates the request, resolves every job's
// PCC through the generation's curve cache and the model mux, and builds
// the policy's plan plus the Peak-allocation baseline for the savings
// columns. All validation failures map to 400 via the typed plan errors;
// model routing keeps the scoring contract (unknown 400, untrained 409).
func (s *Server) PlanLocal(req *PlanRequest) (*PlanResponse, error) {
	// Every outcome lands on the request's {strategy=...} series; an
	// unknown strategy is itself a 400.
	met := s.planMetrics(req.Strategy)
	strategy, err := plan.ParseStrategy(req.Strategy)
	if err != nil {
		met.rejected.Inc()
		return nil, err
	}
	if len(req.Jobs) == 0 {
		met.rejected.Inc()
		return nil, plan.ErrNoJobs
	}
	if req.Threshold < 0 {
		met.rejected.Inc()
		return nil, reqErrf("serve: negative threshold %v: the §2.1 termination threshold must be positive (0 selects the %v default)", req.Threshold, pcc.DefaultThreshold)
	}
	if len(req.ArrivalSeconds) != 0 && len(req.ArrivalSeconds) != len(req.Jobs) {
		met.rejected.Inc()
		return nil, reqErrf("serve: %d arrival_seconds for %d jobs", len(req.ArrivalSeconds), len(req.Jobs))
	}
	if len(req.DeadlineSeconds) != 0 && len(req.DeadlineSeconds) != len(req.Jobs) {
		met.rejected.Inc()
		return nil, reqErrf("serve: %d deadline_seconds for %d jobs", len(req.DeadlineSeconds), len(req.Jobs))
	}
	if len(req.Tenants) != 0 && len(req.Tenants) != len(req.Jobs) {
		met.rejected.Inc()
		return nil, reqErrf("serve: %d tenants for %d jobs", len(req.Tenants), len(req.Jobs))
	}
	policy, err := plan.ParsePolicyKind(req.Policy)
	if err != nil {
		met.rejected.Inc()
		return nil, err
	}
	if req.CapacityTokens < 1 {
		met.rejected.Inc()
		return nil, plan.ErrBadCapacity
	}
	if err := plan.Quota(req.Quotas).Validate(); err != nil {
		met.rejected.Inc()
		return nil, err
	}

	active := s.active.Load()
	if active == nil {
		met.failed.Inc()
		return nil, errNoModel
	}

	// Every job's curve is independent of its siblings', and the cache is
	// sharded for exactly this, so resolution fans out over the worker
	// bound batch scoring uses; item i writes only slot i. The lowest
	// failing index decides the error at any worker count.
	specs := make([]plan.JobSpec, len(req.Jobs))
	served := make([]string, len(req.Jobs))
	resolve := func(i int) error {
		job := req.Jobs[i]
		if job == nil {
			return reqErrf("serve: plan job %d is null", i)
		}
		curve, model, _, err := s.curveFor(active, req.Model, job)
		if err != nil {
			return err
		}
		specs[i] = plan.JobSpec{
			ID:              job.ID,
			RequestedTokens: job.RequestedTokens,
			PeakTokens:      job.PeakParallelism(),
			Curve:           curve,
		}
		if len(req.ArrivalSeconds) > 0 {
			specs[i].ArrivalSecond = req.ArrivalSeconds[i]
		}
		if len(req.DeadlineSeconds) > 0 {
			specs[i].DeadlineSecond = req.DeadlineSeconds[i]
		}
		if len(req.Tenants) > 0 {
			specs[i].Tenant = req.Tenants[i]
		}
		served[i] = model
		return nil
	}
	workers := s.workers
	if len(req.Jobs) < planFanOutMinJobs {
		workers = 1
	}
	if err := parallel.ForEach(context.TODO(), len(req.Jobs), workers, resolve); err != nil {
		if code := httpStatus(err); code == http.StatusBadRequest || code == http.StatusConflict {
			met.rejected.Inc()
		} else {
			met.failed.Inc()
		}
		return nil, err
	}

	cfg := plan.Config{
		Capacity:  req.CapacityTokens,
		Policy:    policy,
		Threshold: req.Threshold,
		Strategy:  strategy,
		Quota:     plan.Quota(req.Quotas),
	}
	built, err := plan.Build(specs, cfg)
	// The Peak-allocation baseline over the same specs and quotas prices
	// the savings; no extra scoring happens — the curves are already in
	// hand — and no schedule is simulated either: provisioned cost depends
	// on the allocations alone. A baseline the planner cannot price fails
	// the plan as a Build error does, rather than reporting nothing saved.
	var base []plan.Allocation
	if err == nil {
		base, err = plan.Allocate(specs, plan.Config{
			Capacity: req.CapacityTokens,
			Policy:   plan.PolicyPeak,
			Quota:    plan.Quota(req.Quotas),
		})
	}
	if err != nil {
		if httpStatus(err) == http.StatusBadRequest {
			met.rejected.Inc()
		} else {
			met.failed.Inc()
		}
		return nil, err
	}
	baselineCost := 0
	for i := range base {
		baselineCost += base[i].TokenSeconds()
	}

	resp := &PlanResponse{
		ModelVersion:             active.version,
		Policy:                   built.Policy.String(),
		Strategy:                 built.Strategy.String(),
		CapacityTokens:           built.Capacity,
		Jobs:                     make([]PlanJobJSON, len(built.Outcomes)),
		MakespanSeconds:          built.Stats.MakespanSeconds,
		MeanWaitSeconds:          built.Stats.MeanWaitSeconds,
		MaxWaitSeconds:           built.Stats.MaxWaitSeconds,
		TotalTokenSeconds:        built.Stats.TotalTokenSeconds,
		PeakBaselineTokenSeconds: baselineCost,
		SavedTokenSeconds:        baselineCost - built.Stats.TotalTokenSeconds,
		Retries:                  built.Stats.Retries,
		RetryWasteTokenSeconds:   built.Stats.RetryWasteTokenSeconds,
		DeadlineViolations:       built.Stats.DeadlineViolations,
		FellBackToFCFS:           built.FellBack,
	}
	for i, out := range built.Outcomes {
		a := built.Allocations[i]
		j := PlanJobJSON{
			ID:                      out.ID,
			Model:                   served[i],
			Tokens:                  a.Tokens,
			PredictedRuntimeSeconds: a.DurationSeconds,
			StartSecond:             out.StartSecond,
			WaitSeconds:             out.WaitSeconds,
			EndSecond:               out.EndSecond,
			Tenant:                  a.Tenant,
			DeadlineSecond:          a.DeadlineSecond,
			Attempts:                1,
		}
		if a.RetryTokens > 0 {
			j.Attempts = 2
			j.RetryTokens = a.RetryTokens
			j.RetryRuntimeSeconds = a.RetryDurationSeconds
			j.RetryStartSecond = out.RetryStartSecond
		}
		resp.Jobs[i] = j
	}

	met.ok.Inc()
	met.jobs.Add(int64(len(req.Jobs)))
	if resp.SavedTokenSeconds > 0 {
		met.saved.Add(int64(resp.SavedTokenSeconds))
	}
	if resp.RetryWasteTokenSeconds > 0 {
		met.waste.Add(int64(resp.RetryWasteTokenSeconds))
	}
	s.planMakespan.Observe(float64(resp.MakespanSeconds))
	s.planWait.Observe(resp.MeanWaitSeconds)
	return resp, nil
}

// Plan submits a batch of jobs for cluster planning.
func (c *Client) Plan(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	// Planning is a pure function of the request — idempotent, so
	// transient failures (including transport errors) are retried.
	return postJSON[PlanResponse](ctx, c, "/v1/plan", retryIdempotent, req)
}
