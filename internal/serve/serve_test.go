package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// trainedServer spins up a scoring service over a small trained pipeline.
func trainedServer(t *testing.T) (*httptest.Server, []*jobrepo.Record) {
	t.Helper()
	g := workload.New(workload.TestConfig(31))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(60), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(32)
	cfg.XGB.NumTrees = 20
	cfg.NN.Epochs = 20
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, repo.All()
}

func TestNewServerNilPipeline(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil pipeline accepted")
	}
}

func TestHealthEndpoint(t *testing.T) {
	ts, _ := trainedServer(t)
	client := NewClient(ts.URL)
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	// Wrong method.
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", resp.StatusCode)
	}
}

func TestScoreEndToEnd(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	job := recs[0].Job
	resp, err := client.Score(&ScoreRequest{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model == "" {
		t.Fatal("no model name")
	}
	curve := resp.CurveValue()
	if !curve.NonIncreasing() {
		t.Fatalf("served curve not monotone: %+v", curve)
	}
	if resp.OptimalTokens < 1 || resp.OptimalTokens > job.RequestedTokens {
		t.Fatalf("optimal tokens %d outside [1, %d]", resp.OptimalTokens, job.RequestedTokens)
	}
	if len(resp.Predictions) == 0 {
		t.Fatal("no predictions")
	}
	prev := -1.0
	for i, p := range resp.Predictions {
		if p.RuntimeSeconds <= 0 {
			t.Fatalf("prediction %d runtime %v", i, p.RuntimeSeconds)
		}
		if prev > 0 && p.RuntimeSeconds > prev {
			t.Fatal("served predictions not non-increasing in tokens")
		}
		prev = p.RuntimeSeconds
	}
}

func TestScoreWithCandidates(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	resp, err := client.Score(&ScoreRequest{
		Job:             recs[1].Job,
		CandidateTokens: []int{10, 50, 100},
		Threshold:       0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 3 {
		t.Fatalf("got %d predictions, want 3", len(resp.Predictions))
	}
	for i, want := range []int{10, 50, 100} {
		if resp.Predictions[i].Tokens != want {
			t.Fatalf("prediction %d tokens %d, want %d", i, resp.Predictions[i].Tokens, want)
		}
	}
}

func TestScoreBadRequests(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)

	if _, err := client.Score(&ScoreRequest{}); err == nil {
		t.Fatal("missing job accepted")
	}
	if _, err := client.Score(&ScoreRequest{Job: recs[0].Job, CandidateTokens: []int{0}}); err == nil {
		t.Fatal("zero candidate accepted")
	}
	invalid := &scopesim.Job{ID: "bad", Stages: []scopesim.Stage{{ID: 0, Tasks: 0, TaskSeconds: 1}}}
	if _, err := client.Score(&ScoreRequest{Job: invalid}); err == nil {
		t.Fatal("invalid job accepted")
	}

	// Garbage body.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/score status %d", getResp.StatusCode)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens here
	if err := client.Health(); err == nil {
		t.Fatal("health against dead server succeeded")
	}
	if _, err := client.Score(&ScoreRequest{}); err == nil {
		t.Fatal("score against dead server succeeded")
	}
}

func TestDefaultCandidates(t *testing.T) {
	c := defaultCandidates(100)
	if c[0] != 10 || c[len(c)-1] != 100 {
		t.Fatalf("candidates %v", c)
	}
	tiny := defaultCandidates(1)
	if len(tiny) != 1 || tiny[0] != 1 {
		t.Fatalf("tiny candidates %v", tiny)
	}
	if got := defaultCandidates(0); len(got) != 1 {
		t.Fatalf("zero-max candidates %v", got)
	}
}

// TestErrorStatusContract pins the 400-vs-500 split: client-side
// validation problems are 400, pipeline/model failures are 500.
func TestErrorStatusContract(t *testing.T) {
	okCurve := pcc.Curve{A: -0.5, B: 100}
	cases := []struct {
		name   string
		scorer *fakeScorer
		req    ScoreRequest
		want   int
	}{
		{"nil job", &fakeScorer{curve: okCurve}, ScoreRequest{}, 400},
		{"invalid job", &fakeScorer{curve: okCurve},
			ScoreRequest{Job: &scopesim.Job{ID: "bad", Stages: []scopesim.Stage{{ID: 0, Tasks: 0, TaskSeconds: 1}}}}, 400},
		{"negative threshold", &fakeScorer{curve: okCurve},
			ScoreRequest{Job: validJob("t"), Threshold: -0.5}, 400},
		{"negative max tokens", &fakeScorer{curve: okCurve},
			ScoreRequest{Job: validJob("t"), MaxTokens: -7}, 400},
		{"zero candidate", &fakeScorer{curve: okCurve},
			ScoreRequest{Job: validJob("t"), CandidateTokens: []int{0}}, 400},
		{"pipeline failure", &fakeScorer{err: errors.New("tree ensemble corrupt")},
			ScoreRequest{Job: validJob("t")}, 500},
		{"invalid model curve", &fakeScorer{curve: pcc.Curve{A: math.NaN(), B: -1}},
			ScoreRequest{Job: validJob("t")}, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := fakeServer(t, tc.scorer)
			_, err := NewClient(ts.URL).Score(&tc.req)
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (type %T), want *StatusError", err, err)
			}
			if se.Code != tc.want {
				t.Fatalf("status %d, want %d (%s)", se.Code, tc.want, se.Message)
			}
		})
	}
}

func TestZeroThresholdAndMaxTokensStillDefault(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	resp, err := NewClient(ts.URL).Score(&ScoreRequest{Job: validJob("d")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OptimalTokens < 1 || resp.OptimalTokens > 100 {
		t.Fatalf("defaulted optimal tokens %d outside [1, 100]", resp.OptimalTokens)
	}
}

func TestReadyzDrain(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)
	if err := client.Ready(); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	srv.SetReady(false)
	err := client.Ready()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %v", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("draining readyz body: %q", se.Message)
	}
	// Scoring still works while draining: in-flight work completes.
	if _, err := client.Score(&ScoreRequest{Job: validJob("drain")}); err != nil {
		t.Fatalf("score during drain: %v", err)
	}
	srv.SetReady(true)
	if err := client.Ready(); err != nil {
		t.Fatalf("re-ready: %v", err)
	}
}

// TestEveryMetricFamilyCarriesHelp: a fresh server describes every family
// it exposes. Each has a SetHelp call, and each call comes before the
// family's first series registers it, which must not lose the text.
func TestEveryMetricFamilyCarriesHelp(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	out, err := NewClient(ts.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, _, _ = strings.Cut(name, " ")
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s has no HELP line", name)
		}
	}
	if families < 19 {
		t.Fatalf("a fresh server exposes %d families, want at least 19:\n%s", families, out)
	}
}

// TestMetricsEndpointShape scripts requests and asserts the Prometheus
// exposition contains the expected families and that counters and
// histograms actually move.
func TestMetricsEndpointShape(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)

	before, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE tasq_http_requests_total counter",
		"# TYPE tasq_http_in_flight_requests gauge",
		"# TYPE tasq_http_request_duration_seconds histogram",
		"# TYPE tasq_score_jobs_total counter",
	} {
		if !strings.Contains(before, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, before)
		}
	}

	// Script: 3 good scores, 1 bad score, 1 batch of 2.
	for i := 0; i < 3; i++ {
		if _, err := client.Score(&ScoreRequest{Job: validJob("m")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Score(&ScoreRequest{}); err == nil {
		t.Fatal("bad request accepted")
	}
	if _, err := client.ScoreBatch(&BatchScoreRequest{Items: []ScoreRequest{
		{Job: validJob("m1")}, {Job: validJob("m2")},
	}}); err != nil {
		t.Fatal(err)
	}

	after, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tasq_http_requests_total{code="2xx",route="/v1/score"} 3`,
		`tasq_http_requests_total{code="4xx",route="/v1/score"} 1`,
		`tasq_http_requests_total{code="2xx",route="/v1/score/batch"} 1`,
		`tasq_score_jobs_total{outcome="ok"} 5`,
		`tasq_score_jobs_total{outcome="rejected"} 1`,
		`tasq_http_request_duration_seconds_count{route="/v1/score"} 4`,
		`tasq_http_request_duration_seconds_bucket{route="/v1/score",le="+Inf"} 4`,
	} {
		if !strings.Contains(after, want+"\n") {
			t.Fatalf("missing %q in /metrics after scripted load:\n%s", want, after)
		}
	}
	if before == after {
		t.Fatal("metrics did not change across scripted requests")
	}
}

func TestRequestIDOnResponses(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no request id on /healthz response")
	}
}

func TestScoreConcurrent(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			job := recs[w%len(recs)].Job
			for i := 0; i < 10; i++ {
				if _, err := client.Score(&ScoreRequest{Job: job}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
