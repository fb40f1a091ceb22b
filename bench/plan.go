package main

// plan_local: serve.Server.PlanLocal in process, the entry point of
// embedders and the planner soak. No JSON and no socket: curve resolution
// and plan.Build are the whole cost.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"tasq/internal/plan"
	"tasq/internal/serve"
)

// planFingerprint folds everything a plan decides: the aggregates and
// every job's allocation and schedule, both attempts.
func planFingerprint(resp *serve.PlanResponse) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte(resp.Policy))
	h.Write([]byte(resp.Strategy))
	for _, v := range []int{resp.CapacityTokens, resp.MakespanSeconds, resp.MaxWaitSeconds, resp.TotalTokenSeconds,
		resp.PeakBaselineTokenSeconds, resp.SavedTokenSeconds, resp.Retries, resp.RetryWasteTokenSeconds, resp.DeadlineViolations} {
		word(v)
	}
	if resp.FellBackToFCFS {
		word(1)
	}
	for i := range resp.Jobs {
		j := &resp.Jobs[i]
		h.Write([]byte(j.ID))
		h.Write([]byte(j.Model))
		h.Write([]byte(j.Tenant))
		for _, v := range []int{j.Tokens, j.PredictedRuntimeSeconds, j.StartSecond, j.WaitSeconds, j.EndSecond,
			j.DeadlineSecond, j.Attempts, j.RetryTokens, j.RetryRuntimeSeconds, j.RetryStartSecond} {
			word(v)
		}
	}
	return h.Sum64()
}

// validatePlan rebuilds the schedule a response describes and sweeps it
// with plan.ValidateSchedule, which recomputes occupancy from first
// principles; it also closes the cost arithmetic.
func validatePlan(req *serve.PlanRequest, resp *serve.PlanResponse) error {
	if len(resp.Jobs) != len(req.Jobs) {
		return fmt.Errorf("%d planned jobs for %d requested", len(resp.Jobs), len(req.Jobs))
	}
	allocs := make([]plan.Allocation, len(resp.Jobs))
	outs := make([]plan.Outcome, len(resp.Jobs))
	total := 0
	for i, j := range resp.Jobs {
		allocs[i] = plan.Allocation{
			ID: j.ID, ArrivalSecond: int(math.Floor(req.ArrivalSeconds[i])),
			Tokens: j.Tokens, DurationSeconds: j.PredictedRuntimeSeconds,
			Tenant: j.Tenant, DeadlineSecond: j.DeadlineSecond,
			RetryTokens: j.RetryTokens, RetryDurationSeconds: j.RetryRuntimeSeconds,
		}
		outs[i] = plan.Outcome{
			ID: j.ID, StartSecond: j.StartSecond, WaitSeconds: j.WaitSeconds,
			EndSecond: j.EndSecond, RetryStartSecond: j.RetryStartSecond,
		}
		total += j.Tokens*j.PredictedRuntimeSeconds + j.RetryTokens*j.RetryRuntimeSeconds
	}
	if total != resp.TotalTokenSeconds {
		return fmt.Errorf("closed-form cost %d != reported %d", total, resp.TotalTokenSeconds)
	}
	if resp.SavedTokenSeconds != resp.PeakBaselineTokenSeconds-resp.TotalTokenSeconds {
		return fmt.Errorf("saved %d != peak %d - total %d", resp.SavedTokenSeconds, resp.PeakBaselineTokenSeconds, resp.TotalTokenSeconds)
	}
	return plan.ValidateSchedule(req.CapacityTokens, plan.Quota(req.Quotas), allocs, outs)
}

func runPlan(cfg runConfig) (*outcome, error) {
	f, err := buildFixture(cfg.sz, cfg.outDir)
	if err != nil {
		return nil, err
	}
	pool := recurringPool(cfg.sz)
	batches := planBatches(cfg.sz, pool, newRand(cfg.seed))
	out := &outcome{values: map[string]float64{"runtime_mape_pct": f.mapePct}}

	// One cold cycle: a new server, then one plan per batch, which
	// resolves every pool job's curve into the cache.
	var srv *serve.Server
	setup, err := fastest(cfg.setupFill, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		if srv, err = serve.NewServer(f.pipeline); err != nil {
			return 0, err
		}
		for _, b := range batches {
			if _, err := srv.PlanLocal(b[0]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup.Seconds()

	// Every distinct plan is validated once, untimed; the timed repeats
	// must reproduce its fingerprint, and so its cost. saved_vs_peak_pct is
	// what the FCFS plans of the timed batches save against Peak.
	want := make([][]uint64, len(batches))
	var saved, peak int
	for b, reqs := range batches {
		for _, req := range reqs {
			resp, err := srv.PlanLocal(req)
			if err != nil {
				return nil, fmt.Errorf("batch %d %s: %w", b, req.Strategy, err)
			}
			if err := validatePlan(req, resp); err != nil {
				out.problemf("batch %d %s: infeasible plan: %v", b, req.Strategy, err)
			}
			want[b] = append(want[b], planFingerprint(resp))
			if req.Strategy == "fcfs" {
				saved += resp.SavedTokenSeconds
				peak += resp.PeakBaselineTokenSeconds
			}
		}
	}
	if peak <= 0 {
		return nil, fmt.Errorf("bench: peak baseline of %d token-seconds over %d batches", peak, len(batches))
	}
	out.values["saved_vs_peak_pct"] = 100 * float64(saved) / float64(peak)

	ws, stats := runWindows(loadConfig{
		workers: min(runtime.NumCPU(), 2), warm: cfg.warm, timed: cfg.windows, window: cfg.window,
	}, func(_ int, i int64) (time.Duration, error) {
		b := int(i % int64(len(batches)))
		start := time.Now()
		var bad error
		for s, req := range batches[b] {
			resp, err := srv.PlanLocal(req)
			if err != nil {
				return 0, err
			}
			if got := planFingerprint(resp); got != want[b][s] && bad == nil {
				bad = fmt.Errorf("batch %d %s: fingerprint %016x, first plan had %016x", b, req.Strategy, got, want[b][s])
			}
		}
		return time.Since(start), bad
	})
	out.attempted, out.failed = stats.attempted, stats.failed
	out.sum, out.windows = summarize(ws, len(planStrategies)*cfg.sz.batchJobs), ws
	out.timings()
	if cfg.trace {
		tr := newTracer()
		if err := planLayers(cfg, srv, batches, tr, out); err != nil {
			return nil, err
		}
		driverLayers(out, tr, "driver.op")
		if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// planLayers is plan_local's traced pass: every batch once, the operation
// of the timed windows under a span of its own (PlanLocal under every
// strategy), each PlanLocal then replayed as its two Builds, the simulation
// and the summary; a few plans also cross an httptest server to show what
// the wire would add.
func planLayers(cfg runConfig, srv *serve.Server, batches [][]*serve.PlanRequest, tr *tracer, out *outcome) error {
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := newScoreClient()
	httpLeft := cfg.sz.layerPlanHTTP
	for c := 0; c < cfg.sz.layerPlanCycles; c++ {
		reqs := batches[c%len(batches)]
		n := int64(c)
		resps := make([]*serve.PlanResponse, len(reqs))
		pids := make([]int, len(reqs))
		op := tr.begin(0, n, "driver.op", false)
		for s, req := range reqs {
			pids[s] = tr.begin(op, n, "serve.plan_local."+req.Strategy, false)
			resp, err := srv.PlanLocal(req)
			tr.end(pids[s])
			if err != nil {
				return err
			}
			resps[s] = resp
		}
		tr.end(op)

		// The specs PlanLocal hands to Build, rebuilt from the cached curves
		// ScoreLocal returns; the strategies of a batch share them.
		specs := make([]plan.JobSpec, len(reqs[0].Jobs))
		for i, job := range reqs[0].Jobs {
			resp, err := srv.ScoreLocal(&serve.ScoreRequest{Job: job})
			if err != nil {
				return err
			}
			specs[i] = plan.JobSpec{
				ID: job.ID, ArrivalSecond: reqs[0].ArrivalSeconds[i], RequestedTokens: job.RequestedTokens,
				PeakTokens: job.PeakParallelism(), Curve: resp.CurveValue(),
				DeadlineSecond: reqs[0].DeadlineSeconds[i], Tenant: reqs[0].Tenants[i],
			}
			resp.Release()
		}
		if c == 0 {
			// Resolving a curve starts with the job's cache key.
			for _, job := range reqs[0].Jobs {
				id := tr.begin(pids[0], n, "serve.key", false)
				serve.RouteKey(reqs[0].Model, job)
				tr.end(id)
			}
		}
		for s, req := range reqs {
			pid, resp := pids[s], resps[s]
			strategy, err := plan.ParseStrategy(req.Strategy)
			if err != nil {
				return err
			}
			buildCfg := plan.Config{Capacity: req.CapacityTokens, Policy: plan.PolicyOptimal, Strategy: strategy, Quota: plan.Quota(req.Quotas)}
			bid := tr.begin(pid, n, "plan.build."+req.Strategy, true)
			built, err := plan.Build(specs, buildCfg)
			tr.end(bid)
			if err != nil {
				return err
			}
			if built.Stats.TotalTokenSeconds != resp.TotalTokenSeconds || built.Stats.MakespanSeconds != resp.MakespanSeconds {
				out.problemf("replayed %s Build (%d token-seconds, makespan %d) differs from PlanLocal's (%d, %d)", req.Strategy,
					built.Stats.TotalTokenSeconds, built.Stats.MakespanSeconds, resp.TotalTokenSeconds, resp.MakespanSeconds)
			}
			id := tr.begin(pid, n, "plan.build.peak_baseline", false)
			_, err = plan.Build(specs, plan.Config{Capacity: req.CapacityTokens, Policy: plan.PolicyPeak, Quota: plan.Quota(req.Quotas)})
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin(bid, n, "plan.simulate."+req.Strategy, false)
			var outs []plan.Outcome
			switch strategy {
			case plan.StrategyBackfill:
				outs, err = plan.SimulateBackfill(req.CapacityTokens, plan.Quota(req.Quotas), built.Allocations)
			case plan.StrategyRetry:
				outs, err = plan.SimulateRetry(req.CapacityTokens, plan.Quota(req.Quotas), built.Allocations)
			default:
				outs, err = plan.SimulateFCFSQuota(req.CapacityTokens, plan.Quota(req.Quotas), built.Allocations)
			}
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin(bid, n, "plan.summarize", false)
			plan.Summarize(built.Allocations, outs)
			tr.end(id)

			if httpLeft > 0 {
				httpLeft--
				body, err := json.Marshal(req)
				if err != nil {
					return err
				}
				hid := tr.begin(0, n, "serve.plan_http", false)
				status, err := client.do(http.MethodPost, ts.URL+"/v1/plan", body)
				tr.end(hid)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("POST /v1/plan: status %d: %v", status, err)
				}
				var decoded serve.PlanRequest
				id = tr.begin(hid, n, "serve.plan_decode", false)
				err = json.Unmarshal(body, &decoded)
				tr.end(id)
				if err != nil {
					return err
				}
				var enc bytes.Buffer
				id = tr.begin(hid, n, "serve.plan_encode", false)
				err = json.NewEncoder(&enc).Encode(resp)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	ls := tr.layers()
	ms := func(name string) float64 {
		if l := ls[name]; l != nil {
			return median(l.durUs) / 1e3
		}
		return 0
	}
	var resolve []float64
	for _, s := range planStrategies {
		out.values["serve.plan_local_ms."+s] = ms("serve.plan_local." + s)
		out.values["plan.build_ms."+s] = ms("plan.build." + s)
		out.values["plan.simulate_ms."+s] = ms("plan.simulate." + s)
		if l := ls["plan.build."+s]; l != nil {
			out.values["plan.build_allocs."+s] = median(l.allocs)
		}
		if l := ls["serve.plan_local."+s]; l != nil {
			resolve = append(resolve, l.selfUs...)
		}
	}
	out.values["plan.summarize_us"] = ms("plan.summarize") * 1e3
	out.values["serve.key_us"] = ms("serve.key") * 1e3
	out.values["serve.plan_resolve_ms"] = median(resolve) / 1e3
	out.values["serve.plan_decode_ms"] = ms("serve.plan_decode")
	out.values["serve.plan_encode_ms"] = ms("serve.plan_encode")
	out.values["serve.plan_http_ms"] = ms("serve.plan_http")
	out.notef("traced sample: %d plans, %d of them also over HTTP", cfg.sz.layerPlanCycles*len(planStrategies), cfg.sz.layerPlanHTTP)
	return nil
}
