package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// resolvePlanRequest is a contended 1,000-job batch of generated jobs
// (distinct curves per job, unlike the fake scorer's) with arrivals,
// deadlines, tenants and quotas, so all three strategies have something to
// decide.
func resolvePlanRequest(strategy string) *PlanRequest {
	jobs := workload.New(workload.TestConfig(77)).Workload(1000)
	req := &PlanRequest{
		Jobs:            jobs,
		CapacityTokens:  600,
		Strategy:        strategy,
		ArrivalSeconds:  make([]float64, len(jobs)),
		DeadlineSeconds: make([]int, len(jobs)),
		Tenants:         make([]string, len(jobs)),
		Quotas:          map[string]int{"t0": 300, "t1": 200},
	}
	for i := range jobs {
		req.ArrivalSeconds[i] = float64(i/8) * 1.5
		if i%4 == 0 {
			req.DeadlineSeconds[i] = 4000 + 10*i
		}
		req.Tenants[i] = []string{"t0", "t1", ""}[i%3]
	}
	return req
}

// TestPlanResolveIndependentOfWorkerCount: curve resolution fans out over
// the worker pool, and the plan must not know. One worker (the inline
// serial path) and eight must serve byte-identical responses under every
// strategy, cold and warm, and account one cache lookup per job.
func TestPlanResolveIndependentOfWorkerCount(t *testing.T) {
	p, _ := fullPipeline()
	for _, strategy := range []string{"fcfs", "backfill", "retry"} {
		req := resolvePlanRequest(strategy)
		var want []byte
		for _, workers := range []int{1, 8} {
			srv, err := NewServer(p, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for pass, wantHits := range []int64{0, int64(len(req.Jobs))} {
				h0, m0, _, _ := cacheCounters(srv)
				resp, err := srv.PlanLocal(req)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", strategy, workers, err)
				}
				h1, m1, _, _ := cacheCounters(srv)
				if hits, misses := h1-h0, m1-m0; hits != wantHits || hits+misses != int64(len(req.Jobs)) {
					t.Fatalf("%s, %d workers, pass %d: %d hits + %d misses for %d jobs, want %d hits",
						strategy, workers, pass, hits, misses, len(req.Jobs), wantHits)
				}
				got, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s: response at %d workers (pass %d) differs from the serial one", strategy, workers, pass)
				}
			}
		}
	}
}

// TestPlanResolveLowestIndexErrorWins: with two invalid jobs in a batch,
// the request fails as the serial loop always did — on the first — however
// the fan-out interleaves, and lands on the same outcome counter.
func TestPlanResolveLowestIndexErrorWins(t *testing.T) {
	p, _ := fullPipeline()
	req := resolvePlanRequest("fcfs")
	for _, i := range []int{3, 700} {
		bad := *req.Jobs[i]
		bad.Stages = append([]scopesim.Stage(nil), bad.Stages...)
		bad.Stages[0].Tasks = 0
		req.Jobs[i] = &bad
	}
	req.Jobs[900] = nil
	for _, workers := range []int{1, 2, 8} {
		srv, err := NewServer(p, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			_, err := srv.PlanLocal(req)
			if err == nil || httpStatus(err) != 400 || !strings.Contains(err.Error(), req.Jobs[3].ID) {
				t.Fatalf("%d workers, round %d: error %v, want job %s's validation failure", workers, round, err, req.Jobs[3].ID)
			}
		}
		if got := srv.planMet["fcfs"].rejected.Value(); got != 20 {
			t.Fatalf("%d workers: %d rejected plans counted, want 20", workers, got)
		}
	}
}

// routeKeyJobs are two fixed jobs covering every encoded field, one-byte
// and multi-byte varints, negative integers and a model name that
// normalizes.
func routeKeyJobs() (models []string, jobs []*scopesim.Job) {
	small := &scopesim.Job{
		ID: "ignored", RequestedTokens: 7, Template: "t",
		Operators: []scopesim.Operator{{ID: 0, Kind: scopesim.OpExtract, Est: scopesim.OpMetrics{OutputCardinality: 1.5}}},
		Stages:    []scopesim.Stage{{ID: 0, Tasks: 1, TaskSeconds: 1, Operators: []int32{0}}},
	}
	large := &scopesim.Job{
		RequestedTokens: 300, Template: "nightly-rollup/v2",
		Operators: []scopesim.Operator{
			{ID: 0, Kind: scopesim.OpExtract, Partitioning: scopesim.PartitionRange, Stage: 0,
				Est: scopesim.OpMetrics{OutputCardinality: 1e9, LeafInputCardinality: 2.5e9, AvgRowLength: 128,
					SubtreeCost: 77.25, ExclusiveCost: 3.5, TotalCost: 80.75, NumPartitions: 5000, NumPartitioningColumns: 2}},
			{ID: 1, Kind: scopesim.OpHashJoin, Partitioning: scopesim.PartitionHash, Stage: 1, Children: []int32{0, 0},
				Est: scopesim.OpMetrics{ChildrenInputCardinality: 1e9, NumPartitions: 64, NumSortColumns: 70}},
			{ID: -2, Kind: scopesim.OpKind(200), Stage: 129, Children: []int32{1, -1, 1 << 20},
				Est: scopesim.OpMetrics{OutputCardinality: -1, NumPartitions: -65}},
		},
		Stages: []scopesim.Stage{
			{ID: 0, Tasks: 5000, TaskSeconds: 63, Operators: []int32{0}},
			{ID: 1, Tasks: 64, TaskSeconds: 64, Deps: []int32{0}, Operators: []int32{1, 2}},
		},
	}
	return []string{"", "XGBoost-PL"}, []*scopesim.Job{small, large}
}

// TestRouteKeyGolden pins the key bytes: they are the cache's identity,
// the ring's placement input and what clients route on, so a faster
// encoder must emit exactly these. Rewrite with -update only for a
// deliberate, fleet-wide key change.
func TestRouteKeyGolden(t *testing.T) {
	models, jobs := routeKeyJobs()
	var got strings.Builder
	for i, job := range jobs {
		got.WriteString(hex.EncodeToString(RouteKey(models[i], job)))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "route_key.golden.hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read route-key golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("route key bytes drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
