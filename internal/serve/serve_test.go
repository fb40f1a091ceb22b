package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	if err := client.Health(context.Background()); err != nil {
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
	resp, err := client.Score(context.Background(), &ScoreRequest{Job: job})
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
	resp, err := client.Score(context.Background(), &ScoreRequest{
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

	if _, err := client.Score(context.Background(), &ScoreRequest{}); err == nil {
		t.Fatal("missing job accepted")
	}
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: recs[0].Job, CandidateTokens: []int{0}}); err == nil {
		t.Fatal("zero candidate accepted")
	}
	invalid := &scopesim.Job{ID: "bad", Stages: []scopesim.Stage{{ID: 0, Tasks: 0, TaskSeconds: 1}}}
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: invalid}); err == nil {
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
	if err := client.Health(context.Background()); err == nil {
		t.Fatal("health against dead server succeeded")
	}
	if _, err := client.Score(context.Background(), &ScoreRequest{}); err == nil {
		t.Fatal("score against dead server succeeded")
	}
}

// TestClientHonoursCancelledContext: every client route given an already
// cancelled context fails with context.Canceled before a request leaves
// the process, and neither retries nor counts the cancellation against
// the breaker (threshold 1 here, so one recorded failure would open it).
func TestClientHonoursCancelledContext(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	breaker, err := NewBreaker(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ts.URL)
	client.Retry = DefaultRetryPolicy(1)
	client.Breaker = breaker
	cc := NewClusterClient(&fakePicker{})
	if err := cc.AddMember("a", client); err != nil {
		t.Fatal(err)
	}
	batch := &BatchScoreRequest{Items: []ScoreRequest{{}}}
	routes := []struct {
		name string
		call func(context.Context) error
	}{
		{"Health", client.Health},
		{"Ready", client.Ready},
		{"Metrics", func(ctx context.Context) error { _, err := client.Metrics(ctx); return err }},
		{"Score", func(ctx context.Context) error { _, err := client.Score(ctx, &ScoreRequest{}); return err }},
		{"Models", func(ctx context.Context) error { _, err := client.Models(ctx); return err }},
		{"ScoreBatch", func(ctx context.Context) error { _, err := client.ScoreBatch(ctx, batch); return err }},
		{"Plan", func(ctx context.Context) error { _, err := client.Plan(ctx, &PlanRequest{}); return err }},
		{"Reload", func(ctx context.Context) error { _, err := client.Reload(ctx); return err }},
		{"Telemetry", func(ctx context.Context) error { _, err := client.Telemetry(ctx, &TelemetryRequest{}); return err }},
		{"Cluster", func(ctx context.Context) error { _, err := client.Cluster(ctx); return err }},
		{"ClusterClient.Score", func(ctx context.Context) error { _, err := cc.Score(ctx, &ScoreRequest{}); return err }},
		{"ClusterClient.ScoreBatch", func(ctx context.Context) error { _, err := cc.ScoreBatch(ctx, batch); return err }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range routes {
		if err := r.call(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", r.name, err)
		}
		if n := hits.Load(); n != 0 {
			t.Fatalf("%s: the server saw %d requests, want 0", r.name, n)
		}
		if st := breaker.State(); st != BreakerClosed {
			t.Fatalf("%s: breaker %v, want closed", r.name, st)
		}
	}
}

// TestDefaultCandidates pins the ten-point sweep a request without
// candidate_tokens is answered with: deduplicated points over [1, max],
// where max is max_tokens, else the job's requested tokens, else 1.
func TestDefaultCandidates(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	noRequest := validJob("no-request")
	noRequest.RequestedTokens = 0
	for _, tc := range []struct {
		name string
		req  ScoreRequest
		want []int
	}{
		{"max tokens 100", ScoreRequest{Job: validJob("j"), MaxTokens: 100},
			[]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}},
		{"max tokens 1", ScoreRequest{Job: validJob("j"), MaxTokens: 1}, []int{1}},
		{"no requested tokens", ScoreRequest{Job: noRequest}, []int{1}},
	} {
		resp, err := srv.ScoreLocal(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []int
		for _, p := range resp.Predictions {
			got = append(got, p.Tokens)
		}
		resp.Release()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: served tokens %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOversizedBodyIs413 posts one byte over the body bound to every
// route that decodes a body: each must answer 413 naming the limit, not
// parse the truncated prefix into a 400. A body at the bound is still
// read and decoded whole.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, WithTelemetry(acceptSink{}))
	post := func(route string, n int) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(bytes.Repeat([]byte(" "), n)))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, route := range []string{"/v1/score", "/v1/score/batch", "/v1/plan", "/v1/telemetry"} {
		code, msg := post(route, maxBodyBytes+1)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, strconv.Itoa(maxBodyBytes)) {
			t.Fatalf("%s with %d bytes: %d %q, want 413 naming the limit", route, maxBodyBytes+1, code, msg)
		}
	}
	if code, msg := post("/v1/score", maxBodyBytes); code != http.StatusBadRequest || !strings.Contains(msg, "decoding request") {
		t.Fatalf("/v1/score with %d bytes: %d %q, want the decoder's 400", maxBodyBytes, code, msg)
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
			_, err := NewClient(ts.URL).Score(context.Background(), &tc.req)
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
	resp, err := NewClient(ts.URL).Score(context.Background(), &ScoreRequest{Job: validJob("d")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OptimalTokens < 1 || resp.OptimalTokens > 100 {
		t.Fatalf("defaulted optimal tokens %d outside [1, 100]", resp.OptimalTokens)
	}
}

// TestReadyzDrain checks what BeginDrain, tasqd's one way to drain,
// shows a caller: /readyz answers 503 "draining", and a new score is
// refused by the admission gate with 503.
func TestReadyzDrain(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)
	if err := client.Ready(context.Background()); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	srv.BeginDrain()
	err := client.Ready(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %v", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("draining readyz body: %q", se.Message)
	}
	_, err = client.Score(context.Background(), &ScoreRequest{Job: validJob("drain")})
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("score during drain: %v, want 503", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("score during drain message %q", se.Message)
	}
}

// TestServerDefaults pins what a server runs with when no option sets a
// value, which is what tasqd runs with for every setting it has no flag
// for: 256 in flight, 512 queued, a 2 s queue wait, NumCPU workers, a
// 4,096-entry curve cache, 4,096 jobs per plan, every request shadowed.
func TestServerDefaults(t *testing.T) {
	srv, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	got := []any{srv.maxInFlight, srv.maxQueue, srv.queueWait, srv.workers, srv.cacheCap, srv.maxPlanJobs, srv.shadowRate}
	want := []any{256, 512, 2 * time.Second, runtime.NumCPU(), 4096, 4096, 1.0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults %v, want %v", got, want)
	}
}

// TestEveryMetricFamilyCarriesHelp: a fresh server describes every family
// it exposes. Each has a SetHelp call, and each call comes before the
// family's first series registers it, which must not lose the text.
func TestEveryMetricFamilyCarriesHelp(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	out, err := NewClient(ts.URL).Metrics(context.Background())
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

	before, err := client.Metrics(context.Background())
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
		if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("m")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Score(context.Background(), &ScoreRequest{}); err == nil {
		t.Fatal("bad request accepted")
	}
	if _, err := client.ScoreBatch(context.Background(), &BatchScoreRequest{Items: []ScoreRequest{
		{Job: validJob("m1")}, {Job: validJob("m2")},
	}}); err != nil {
		t.Fatal(err)
	}

	after, err := client.Metrics(context.Background())
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
				if _, err := client.Score(context.Background(), &ScoreRequest{Job: job}); err != nil {
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
