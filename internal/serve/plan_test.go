package serve

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/scopesim"
)

// planJob builds a wide job: peak parallelism 200 well above the optimal
// allocation (50 for the A=-0.5 test curve at the default threshold), so
// the Optimal policy visibly saves token-seconds against Peak.
func planJob(id string) *scopesim.Job {
	return &scopesim.Job{
		ID:              id,
		RequestedTokens: 100,
		Stages:          []scopesim.Stage{{ID: 0, Tasks: 200, TaskSeconds: 2}},
	}
}

// planCurve is the fake PCC every planJob scores to: R = 600·A^-0.5.
// Optimal tokens at threshold 0.01 = ceil(0.5/0.01) = 50, runtime 85s;
// Peak = 200 tokens at runtime 43s.
var planCurve = pcc.Curve{A: -0.5, B: 600}

const (
	planOptTokens  = 50
	planOptSeconds = 85   // ceil(600/sqrt(50))
	planOptCost    = 4250 // 50 × 85
	planPeakCost   = 8600 // 200 × 43
)

// TestPlanEndToEnd1000Jobs is the acceptance-criteria batch: 1,000 jobs
// planned over HTTP in one POST /v1/plan, with per-job allocations, a
// consistent FCFS schedule, and positive savings vs. the Peak baseline.
func TestPlanEndToEnd1000Jobs(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: planCurve})
	client := NewClient(ts.URL)

	req := &PlanRequest{CapacityTokens: 400}
	for i := 0; i < 1000; i++ {
		req.Jobs = append(req.Jobs, planJob(fmt.Sprintf("job-%04d", i)))
	}
	resp, err := client.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if resp.Policy != "Optimal Allocation" {
		t.Fatalf("default policy %q, want Optimal Allocation", resp.Policy)
	}
	if resp.CapacityTokens != 400 {
		t.Fatalf("capacity echoed as %d", resp.CapacityTokens)
	}
	if len(resp.Jobs) != 1000 {
		t.Fatalf("planned %d jobs, want 1000", len(resp.Jobs))
	}
	for i, j := range resp.Jobs {
		if j.ID != fmt.Sprintf("job-%04d", i) {
			t.Fatalf("job %d is %q: response order must match request order", i, j.ID)
		}
		if j.Tokens != planOptTokens || j.PredictedRuntimeSeconds != planOptSeconds {
			t.Fatalf("job %d allocated %d tokens / %ds, want %d / %ds",
				i, j.Tokens, j.PredictedRuntimeSeconds, planOptTokens, planOptSeconds)
		}
		if j.StartSecond < 0 || j.WaitSeconds != j.StartSecond || j.EndSecond != j.StartSecond+planOptSeconds {
			t.Fatalf("job %d schedule inconsistent: %+v", i, j)
		}
		if i > 0 && j.StartSecond < resp.Jobs[i-1].StartSecond {
			t.Fatalf("job %d starts before its FCFS predecessor", i)
		}
	}
	if resp.TotalTokenSeconds != 1000*planOptCost {
		t.Fatalf("total cost %d, want %d", resp.TotalTokenSeconds, 1000*planOptCost)
	}
	if resp.PeakBaselineTokenSeconds != 1000*planPeakCost {
		t.Fatalf("peak baseline %d, want %d", resp.PeakBaselineTokenSeconds, 1000*planPeakCost)
	}
	if want := 1000 * (planPeakCost - planOptCost); resp.SavedTokenSeconds != want {
		t.Fatalf("saved %d token-seconds, want %d", resp.SavedTokenSeconds, want)
	}
	// 400 tokens fit 8 concurrent 50-token jobs: 1000 jobs in waves of 8.
	if want := 125 * planOptSeconds; resp.MakespanSeconds != want {
		t.Fatalf("makespan %d, want %d", resp.MakespanSeconds, want)
	}
	if resp.MeanWaitSeconds < 0 || float64(resp.MaxWaitSeconds) < resp.MeanWaitSeconds {
		t.Fatalf("wait stats inconsistent: mean %v max %d", resp.MeanWaitSeconds, resp.MaxWaitSeconds)
	}
}

// TestPlanPolicies pins each policy's allocation against the same batch.
func TestPlanPolicies(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: planCurve})
	cases := []struct {
		policy     string
		threshold  float64
		wantTokens int
	}{
		{"default", 0, 100},           // requested tokens as submitted
		{"peak", 0, 200},              // widest stage
		{"adaptive-peak", 0, 200},     // sky-perfect peak in the planner's view
		{"optimal", 0, 50},            // ceil(0.5/0.01)
		{"optimal", 0.05, 10},         // coarser threshold, smaller allocation
		{"Optimal Allocation", 0, 50}, // Figure-1 display name round-trips
	}
	for _, tc := range cases {
		resp, err := srv.PlanLocal(&PlanRequest{
			Jobs:           []*scopesim.Job{planJob("p")},
			CapacityTokens: 400,
			Policy:         tc.policy,
			Threshold:      tc.threshold,
		})
		if err != nil {
			t.Fatalf("policy %q: %v", tc.policy, err)
		}
		if resp.Jobs[0].Tokens != tc.wantTokens {
			t.Fatalf("policy %q threshold %v allocated %d tokens, want %d",
				tc.policy, tc.threshold, resp.Jobs[0].Tokens, tc.wantTokens)
		}
	}
}

// TestPlanArrivals pins queueing behavior: with capacity for one job at a
// time, equal arrivals serialize (the second job waits a full runtime)
// while spaced arrivals don't wait at all.
func TestPlanArrivals(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: planCurve})

	together, err := srv.PlanLocal(&PlanRequest{
		Jobs:           []*scopesim.Job{planJob("a"), planJob("b")},
		CapacityTokens: planOptTokens, // one job fits at a time
	})
	if err != nil {
		t.Fatal(err)
	}
	if together.Jobs[1].WaitSeconds != planOptSeconds {
		t.Fatalf("serialized second job waited %ds, want %d", together.Jobs[1].WaitSeconds, planOptSeconds)
	}
	if together.MaxWaitSeconds != planOptSeconds {
		t.Fatalf("max wait %d, want %d", together.MaxWaitSeconds, planOptSeconds)
	}

	spaced, err := srv.PlanLocal(&PlanRequest{
		Jobs:           []*scopesim.Job{planJob("a"), planJob("b")},
		CapacityTokens: planOptTokens,
		ArrivalSeconds: []float64{0, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spaced.Jobs[1].StartSecond != 1000 || spaced.Jobs[1].WaitSeconds != 0 {
		t.Fatalf("spaced second job start %d wait %d, want 1000 / 0",
			spaced.Jobs[1].StartSecond, spaced.Jobs[1].WaitSeconds)
	}
}

// TestPlanErrorStatusContract pins the typed 400-vs-500 split on
// /v1/plan: every malformed request is a 400, model/pipeline failures
// are 500, and the capped batch size is enforced on the wire only.
func TestPlanErrorStatusContract(t *testing.T) {
	ok := &fakeScorer{curve: planCurve}
	one := []*scopesim.Job{planJob("x")}
	overCap := make([]*scopesim.Job, DefaultMaxPlanJobs+1)
	for i := range overCap {
		overCap[i] = one[0]
	}
	cases := []struct {
		name   string
		scorer *fakeScorer
		opts   []Option
		req    PlanRequest
		want   int
	}{
		{"no jobs", ok, nil, PlanRequest{CapacityTokens: 100}, 400},
		{"zero capacity", ok, nil, PlanRequest{Jobs: one}, 400},
		{"negative capacity", ok, nil, PlanRequest{Jobs: one, CapacityTokens: -5}, 400},
		{"unknown policy", ok, nil, PlanRequest{Jobs: one, CapacityTokens: 100, Policy: "lifo"}, 400},
		{"negative threshold", ok, nil, PlanRequest{Jobs: one, CapacityTokens: 100, Threshold: -0.1}, 400},
		{"arrival mismatch", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, ArrivalSeconds: []float64{0, 5}}, 400},
		{"negative arrival", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, ArrivalSeconds: []float64{-3}}, 400},
		{"unknown strategy", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, Strategy: "lifo"}, 400},
		{"deadline mismatch", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, DeadlineSeconds: []int{1, 2}}, 400},
		{"negative deadline", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, DeadlineSeconds: []int{-4}}, 400},
		{"tenant mismatch", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, Tenants: []string{"a", "b"}}, 400},
		{"non-positive quota", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, Quotas: map[string]int{"acme": 0}}, 400},
		{"null job", ok, nil, PlanRequest{Jobs: []*scopesim.Job{nil}, CapacityTokens: 100}, 400},
		{"invalid job", ok, nil, PlanRequest{
			Jobs:           []*scopesim.Job{{ID: "bad", Stages: []scopesim.Stage{{ID: 0, Tasks: 0, TaskSeconds: 1}}}},
			CapacityTokens: 100}, 400},
		{"model on non-routing scorer", ok, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100, Model: "NN"}, 400},
		{"over job cap", ok, nil, PlanRequest{Jobs: overCap, CapacityTokens: 100}, 400},
		{"pipeline failure", &fakeScorer{err: errors.New("ensemble corrupt")}, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100}, 500},
		{"invalid model curve", &fakeScorer{curve: pcc.Curve{A: math.NaN(), B: -1}}, nil,
			PlanRequest{Jobs: one, CapacityTokens: 100}, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := fakeServer(t, tc.scorer, tc.opts...)
			_, err := NewClient(ts.URL).Plan(context.Background(), &tc.req)
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (type %T), want *StatusError", err, err)
			}
			if se.Code != tc.want {
				t.Fatalf("status %d, want %d (%s)", se.Code, tc.want, se.Message)
			}
		})
	}

	// In process, the same batch is planned: only the wire is capped.
	srv, ts := fakeServer(t, ok)
	if _, err := srv.PlanLocal(&PlanRequest{Jobs: overCap, CapacityTokens: 100}); err != nil {
		t.Fatalf("PlanLocal over the wire cap: %v", err)
	}

	// Wire-level malformed traffic.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan status %d, want 405", getResp.StatusCode)
	}
}

// TestPlanModelRouting drives the planner through the real trained mux:
// per-job predictions come from the named predictor, unknown names are
// 400, and a known-but-untrained predictor is 409.
func TestPlanModelRouting(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)

	req := &PlanRequest{CapacityTokens: 200}
	for _, r := range recs[:8] {
		req.Jobs = append(req.Jobs, r.Job)
	}
	resp, err := client.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 8 {
		t.Fatalf("planned %d jobs, want 8", len(resp.Jobs))
	}
	for i, j := range resp.Jobs {
		if j.Model == "" {
			t.Fatalf("job %d served by unnamed model", i)
		}
		if j.Tokens < 1 || j.Tokens > 200 {
			t.Fatalf("job %d allocated %d tokens outside [1, 200]", i, j.Tokens)
		}
		if j.PredictedRuntimeSeconds < 1 {
			t.Fatalf("job %d predicted runtime %d", i, j.PredictedRuntimeSeconds)
		}
	}

	var se *StatusError
	req.Model = "no-such-predictor"
	if _, err := client.Plan(context.Background(), req); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("unknown model: %v, want 400", err)
	}
	req.Model = "GNN" // known name, skipped at training time
	if _, err := client.Plan(context.Background(), req); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("untrained model: %v, want 409", err)
	}
}

// TestPlanUnloadedAndDraining covers the availability contract: an
// unloaded server answers 503, and /v1/plan sits behind the admission
// gate, so a draining server sheds new plans with 503 too.
func TestPlanUnloadedAndDraining(t *testing.T) {
	unloaded, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unloaded.PlanLocal(&PlanRequest{Jobs: []*scopesim.Job{planJob("u")}, CapacityTokens: 100}); !errors.Is(err, errNoModel) {
		t.Fatalf("unloaded plan: %v, want errNoModel", err)
	}

	srv, ts := fakeServer(t, &fakeScorer{curve: planCurve})
	srv.BeginDrain()
	var se *StatusError
	_, err = NewClient(ts.URL).Plan(context.Background(), &PlanRequest{Jobs: []*scopesim.Job{planJob("d")}, CapacityTokens: 100})
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining plan: %v, want 503", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("draining plan message %q", se.Message)
	}
}

// TestPlanMetrics pins the tasq_plan_* series: one served plan and one
// rejected plan must show up with exact counter values.
func TestPlanMetrics(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: planCurve})
	client := NewClient(ts.URL)

	if _, err := client.Plan(context.Background(), &PlanRequest{
		Jobs:           []*scopesim.Job{planJob("a"), planJob("b"), planJob("c")},
		CapacityTokens: 400,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Plan(context.Background(), &PlanRequest{CapacityTokens: 0}); err == nil {
		t.Fatal("bad plan accepted")
	}
	if _, err := client.Plan(context.Background(), &PlanRequest{
		Jobs:           []*scopesim.Job{planJob("d")},
		CapacityTokens: 400,
		Strategy:       "lifo",
	}); err == nil {
		t.Fatal("bad strategy accepted")
	}

	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tasq_plan_requests_total{outcome="ok",strategy="fcfs"} 1`,
		`tasq_plan_requests_total{outcome="rejected",strategy="fcfs"} 1`,
		`tasq_plan_requests_total{outcome="rejected",strategy="invalid"} 1`,
		`tasq_plan_requests_total{outcome="failed",strategy="fcfs"} 0`,
		`tasq_plan_requests_total{outcome="ok",strategy="backfill"} 0`,
		`tasq_plan_jobs_total{strategy="fcfs"} 3`,
		fmt.Sprintf(`tasq_plan_saved_token_seconds_total{strategy="fcfs"} %d`, 3*(planPeakCost-planOptCost)),
		`tasq_plan_retry_waste_token_seconds_total{strategy="retry"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, `tasq_plan_makespan_seconds_count 1`) {
		t.Fatalf("makespan histogram not observed:\n%s", metrics)
	}
}

// TestPlanStrategiesEndToEnd routes each scheduling strategy through the
// real endpoint: the strategy is echoed, NaN arrivals are rejected at
// the local entry point, backfill never loses to FCFS on the same batch,
// and retry reports its two-attempt accounting on the wire.
func TestPlanStrategiesEndToEnd(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: planCurve})
	client := NewClient(ts.URL)

	req := &PlanRequest{
		CapacityTokens: 120,
		// One running job leaves a gap the later small arrivals backfill
		// while a full-width job blocks the FCFS queue head.
		Jobs:           []*scopesim.Job{planJob("w1"), planJob("w2"), planJob("w3"), planJob("w4")},
		ArrivalSeconds: []float64{0, 1, 2, 3},
		Tenants:        []string{"acme", "acme", "globex", "globex"},
		Quotas:         map[string]int{"acme": 60, "globex": 100},
	}

	fcfs, err := client.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Strategy != "fcfs" {
		t.Fatalf("default strategy %q, want fcfs", fcfs.Strategy)
	}

	req.Strategy = "backfill"
	packed, err := client.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Strategy != "backfill" {
		t.Fatalf("strategy echoed as %q", packed.Strategy)
	}
	if packed.TotalTokenSeconds > fcfs.TotalTokenSeconds {
		t.Fatalf("backfill cost %d > FCFS %d", packed.TotalTokenSeconds, fcfs.TotalTokenSeconds)
	}
	if packed.MakespanSeconds > fcfs.MakespanSeconds {
		t.Fatalf("backfill makespan %d > FCFS %d", packed.MakespanSeconds, fcfs.MakespanSeconds)
	}

	req.Strategy = "retry"
	retry, err := client.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Strategy != "retry" {
		t.Fatalf("strategy echoed as %q", retry.Strategy)
	}
	waste, retries := 0, 0
	for _, j := range retry.Jobs {
		switch j.Attempts {
		case 1:
			if j.RetryTokens != 0 || j.RetryStartSecond != 0 {
				t.Fatalf("single-attempt job %s carries retry fields: %+v", j.ID, j)
			}
		case 2:
			retries++
			waste += j.Tokens * j.PredictedRuntimeSeconds
			if j.RetryTokens <= j.Tokens {
				t.Fatalf("job %s retry leg %d not wider than first slice %d", j.ID, j.RetryTokens, j.Tokens)
			}
		default:
			t.Fatalf("job %s attempts %d", j.ID, j.Attempts)
		}
	}
	if retry.Retries != retries || retry.RetryWasteTokenSeconds != waste {
		t.Fatalf("retry accounting (%d, %d) != per-job sums (%d, %d)",
			retry.Retries, retry.RetryWasteTokenSeconds, retries, waste)
	}
	if retry.Retries == 0 {
		t.Fatal("fixture never overran: the retry wire fields went untested")
	}

	// NaN/±Inf arrivals cannot travel JSON, so the guard is pinned at the
	// local entry point embedders call directly.
	req.Strategy = ""
	req.ArrivalSeconds = []float64{0, 1, math.NaN(), 3}
	if _, err := srv.PlanLocal(req); !errors.Is(err, plan.ErrBadArrival) {
		t.Fatalf("NaN arrival: %v, want ErrBadArrival", err)
	}
	req.ArrivalSeconds = []float64{0, 1, 2, math.Inf(-1)}
	if _, err := srv.PlanLocal(req); !errors.Is(err, plan.ErrBadArrival) {
		t.Fatalf("-Inf arrival: %v, want ErrBadArrival", err)
	}
}

// A batch whose provisioned cost would leave the planner's integer range is
// the request's to fix: plan.ErrCostRange answers 400, never a wrapped
// number or a 500.
func TestHTTPStatusPlanCostRange(t *testing.T) {
	err := fmt.Errorf("serve: plan: %w", plan.ErrCostRange)
	if got := httpStatus(err); got != http.StatusBadRequest {
		t.Fatalf("httpStatus(ErrCostRange) = %d, want 400", got)
	}
}

// TestHTTPStatusPlanErrors: every plan.Err* sentinel but ErrStarved is
// the caller's fault and maps to 400 through httpStatus, wrapped or not,
// with the text it had before the sentinels wrapped plan.ErrInvalid;
// ErrStarved is an internal failure (500). The sentinel list is read from
// the plan package's source, so a new sentinel without a row fails here.
func TestHTTPStatusPlanErrors(t *testing.T) {
	rows := map[string]struct {
		err  error
		text string
		want int
	}{
		"ErrInvalid":       {plan.ErrInvalid, "plan: invalid input", http.StatusBadRequest},
		"ErrBadCapacity":   {plan.ErrBadCapacity, "plan: pool capacity must be positive", http.StatusBadRequest},
		"ErrNoJobs":        {plan.ErrNoJobs, "plan: no jobs to plan", http.StatusBadRequest},
		"ErrBadAllocation": {plan.ErrBadAllocation, "plan: bad token allocation", http.StatusBadRequest},
		"ErrBadPolicy":     {plan.ErrBadPolicy, "plan: unknown allocation policy", http.StatusBadRequest},
		"ErrBadCurve":      {plan.ErrBadCurve, "plan: invalid performance curve", http.StatusBadRequest},
		"ErrBadArrival":    {plan.ErrBadArrival, "plan: bad arrival time", http.StatusBadRequest},
		"ErrBadDeadline":   {plan.ErrBadDeadline, "plan: bad deadline", http.StatusBadRequest},
		"ErrBadQuota":      {plan.ErrBadQuota, "plan: bad tenant quota", http.StatusBadRequest},
		"ErrBadStrategy":   {plan.ErrBadStrategy, "plan: unknown scheduling strategy", http.StatusBadRequest},
		"ErrCostRange":     {plan.ErrCostRange, "plan: provisioned cost out of range", http.StatusBadRequest},
		"ErrStarved":       {plan.ErrStarved, "plan: job starved", http.StatusInternalServerError},
	}
	files, err := filepath.Glob("../plan/*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if !strings.HasPrefix(name.Name, "Err") {
						continue
					}
					declared++
					if _, ok := rows[name.Name]; !ok {
						t.Errorf("plan.%s has no row", name.Name)
					}
				}
			}
		}
	}
	if declared != len(rows) {
		t.Errorf("plan declares %d Err* sentinels, the table has %d rows", declared, len(rows))
	}
	for name, row := range rows {
		if got := row.err.Error(); got != row.text {
			t.Errorf("plan.%s text %q, want %q", name, got, row.text)
		}
		for _, err := range []error{row.err, fmt.Errorf("serve: plan: %w: detail", row.err)} {
			if got := httpStatus(err); got != row.want {
				t.Errorf("httpStatus(%v) = %d, want %d", err, got, row.want)
			}
		}
	}
}

// A flat curve with a huge constant run time: Optimal gives each job one
// token, Peak its 200-wide stage. The Optimal plan stays inside the
// planner's integer range while the Peak baseline leaves it, so the plan
// must fail as a Build error would — 400 and a rejected count — rather than
// report a baseline equal to its own cost and nothing saved.
func TestPlanRefusesUnpricedPeakBaseline(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: 0, B: 1e14}})
	req := &PlanRequest{Jobs: []*scopesim.Job{planJob("a")}, CapacityTokens: 400}
	if _, err := srv.PlanLocal(req); !errors.Is(err, plan.ErrCostRange) {
		t.Fatalf("PlanLocal: %v, want ErrCostRange", err)
	}
	client := NewClient(ts.URL)
	var se *StatusError
	if _, err := client.Plan(context.Background(), req); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("HTTP plan: %v, want 400", err)
	}
	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tasq_plan_requests_total{outcome="rejected",strategy="fcfs"} 2`,
		`tasq_plan_requests_total{outcome="ok",strategy="fcfs"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
