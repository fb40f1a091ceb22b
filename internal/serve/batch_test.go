package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tasq/internal/model"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// fakeScorer lets tests drive the internal-failure path deterministically.
type fakeScorer struct {
	curve pcc.Curve
	err   error
}

// ScoreJobModel answers every policy-routed job with the fake's curve or
// error; it registers no predictor, so a named model is unknown.
func (f *fakeScorer) ScoreJobModel(name string, job *scopesim.Job) (pcc.Curve, string, error) {
	if name != "" {
		return pcc.Curve{}, "", fmt.Errorf("%w %q", model.ErrUnknownModel, name)
	}
	if f.err != nil {
		return pcc.Curve{}, "", f.err
	}
	return f.curve, "fake", nil
}

func (f *fakeScorer) ModelInfos() []model.Info { return nil }

// fakeServer spins up a test service over a fakeScorer.
func fakeServer(t *testing.T, f *fakeScorer, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(f, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// validJob builds a minimal job that passes scopesim validation.
func validJob(id string) *scopesim.Job {
	return &scopesim.Job{
		ID:              id,
		RequestedTokens: 100,
		Stages:          []scopesim.Stage{{ID: 0, Tasks: 4, TaskSeconds: 2}},
	}
}

func TestBatchScoreMixedItems(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)

	req := &BatchScoreRequest{Items: []ScoreRequest{
		{Job: validJob("ok-0")},
		{},                                       // nil job → per-item 400
		{Job: validJob("ok-2"), Threshold: -0.1}, // negative threshold → per-item 400
		{Job: validJob("ok-3"), CandidateTokens: []int{25, 50}},
	}}
	resp, err := client.ScoreBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if resp.Succeeded != 2 || resp.Failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 2/2", resp.Succeeded, resp.Failed)
	}
	for i, res := range resp.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
	}
	if resp.Results[0].Status != 200 || resp.Results[0].Response == nil {
		t.Fatalf("item 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Status != 400 || resp.Results[1].Error == "" {
		t.Fatalf("item 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Status != 400 || !strings.Contains(resp.Results[2].Error, "threshold") {
		t.Fatalf("item 2: %+v", resp.Results[2])
	}
	if got := resp.Results[3].Response; got == nil || len(got.Predictions) != 2 {
		t.Fatalf("item 3: %+v", resp.Results[3])
	}
}

func TestBatchScoreInternalFailureIsolated(t *testing.T) {
	// The scorer fails every pipeline call: items with valid jobs come
	// back 500, items failing validation still come back 400.
	_, ts := fakeServer(t, &fakeScorer{err: errors.New("model exploded")})
	client := NewClient(ts.URL)

	resp, err := client.ScoreBatch(&BatchScoreRequest{Items: []ScoreRequest{
		{Job: validJob("a")},
		{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Status != 500 || !strings.Contains(resp.Results[0].Error, "model exploded") {
		t.Fatalf("item 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Status != 400 {
		t.Fatalf("item 1: %+v", resp.Results[1])
	}
	if resp.Succeeded != 0 || resp.Failed != 2 {
		t.Fatalf("succeeded=%d failed=%d", resp.Succeeded, resp.Failed)
	}
}

func TestBatchEnvelopeValidation(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	srv.maxBatch = 2
	client := NewClient(ts.URL)

	// Empty batch.
	_, err := client.ScoreBatch(&BatchScoreRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("empty batch: %v", err)
	}
	// Oversized batch.
	big := &BatchScoreRequest{Items: make([]ScoreRequest, 3)}
	if _, err := client.ScoreBatch(big); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("oversized batch: %v", err)
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/score/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch status %d", resp.StatusCode)
	}
}

func TestBatchOrderPreservedAcrossPool(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, WithWorkers(4))
	client := NewClient(ts.URL)

	const n = 64
	req := &BatchScoreRequest{Items: make([]ScoreRequest, n)}
	for i := range req.Items {
		req.Items[i] = ScoreRequest{Job: validJob(fmt.Sprintf("job-%03d", i)), CandidateTokens: []int{i + 1}}
	}
	resp, err := client.ScoreBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != n {
		t.Fatalf("succeeded = %d, want %d", resp.Succeeded, n)
	}
	for i, res := range resp.Results {
		if res.Index != i || res.Response == nil || res.Response.Predictions[0].Tokens != i+1 {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
}

// TestServerConcurrentHammer drives single and batch scoring from many
// parallel clients against one Server; run under -race this is the
// regression test for sharing the pipeline across handler goroutines.
func TestServerConcurrentHammer(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)

	const workers = 12
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch w % 3 {
				case 0:
					if _, err := client.Score(&ScoreRequest{Job: validJob("single")}); err != nil {
						errCh <- err
						return
					}
				case 1:
					req := &BatchScoreRequest{Items: []ScoreRequest{
						{Job: validJob("b0")}, {}, {Job: validJob("b1")},
					}}
					resp, err := client.ScoreBatch(req)
					if err != nil {
						errCh <- err
						return
					}
					if resp.Succeeded != 2 || resp.Failed != 1 {
						errCh <- fmt.Errorf("batch isolation broke: %+v", resp)
						return
					}
				default:
					if _, err := client.Metrics(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := srv.Registry().Counter("tasq_score_jobs_total", "outcome", "ok").Value(); got == 0 {
		t.Fatal("ok counter did not move under load")
	}
}

// TestTrainedServerConcurrentBatch exercises the real trained pipeline —
// not the fake — from ≥8 parallel clients mixing both endpoints, so the
// shared NN/XGB predictors are proven race-clean end to end.
func TestTrainedServerConcurrentBatch(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if w%2 == 0 {
					if _, err := client.Score(&ScoreRequest{Job: recs[w%len(recs)].Job}); err != nil {
						errCh <- err
						return
					}
					continue
				}
				req := &BatchScoreRequest{Items: []ScoreRequest{
					{Job: recs[(w+i)%len(recs)].Job},
					{Job: recs[(w+i+1)%len(recs)].Job},
				}}
				resp, err := client.ScoreBatch(req)
				if err != nil {
					errCh <- err
					return
				}
				if resp.Succeeded != 2 {
					errCh <- fmt.Errorf("batch over trained pipeline: %+v", resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// panicScorer scores like fakeScorer but panics on one job, the way a
// predictor bug would.
type panicScorer struct {
	fakeScorer
	panicOn string
}

func (p *panicScorer) ScoreJobModel(name string, job *scopesim.Job) (pcc.Curve, string, error) {
	if job.ID == p.panicOn {
		panic("predictor bug")
	}
	return p.fakeScorer.ScoreJobModel(name, job)
}

// TestBatchItemPanicFailsOnlyItsItem: batch items score on pool
// goroutines, outside net/http's per-request recovery, so a panic there
// would kill the process. It must instead fail its own item with a 500,
// counted as a failed score, while its siblings succeed and the server
// keeps serving — inline (one worker) and fanned out alike.
func TestBatchItemPanicFailsOnlyItsItem(t *testing.T) {
	for _, workers := range []int{1, 4} {
		srv, err := newServer(&panicScorer{fakeScorer: fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, panicOn: "boom"},
			WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		client := NewClient(ts.URL)
		boom := validJob("boom")
		boom.Stages[0].Tasks = 9 // a plan no cached curve covers
		resp, err := client.ScoreBatch(&BatchScoreRequest{Items: []ScoreRequest{
			{Job: validJob("ok-0")}, {Job: boom}, {Job: validJob("ok-2")}, {Job: validJob("ok-3")},
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if resp.Succeeded != 3 || resp.Failed != 1 {
			t.Fatalf("workers=%d: succeeded=%d failed=%d, want 3/1", workers, resp.Succeeded, resp.Failed)
		}
		for i, res := range resp.Results {
			want := http.StatusOK
			if i == 1 {
				want = http.StatusInternalServerError
			}
			if res.Index != i || res.Status != want {
				t.Fatalf("workers=%d: item %d: %+v, want status %d", workers, i, res, want)
			}
		}
		if !strings.Contains(resp.Results[1].Error, "panicked") {
			t.Fatalf("workers=%d: panicking item's error %q", workers, resp.Results[1].Error)
		}
		if _, err := client.Score(&ScoreRequest{Job: validJob("after")}); err != nil {
			t.Fatalf("workers=%d: server stopped serving after an item panic: %v", workers, err)
		}
		text, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, `tasq_score_jobs_total{outcome="failed"} 1`) {
			t.Fatalf("workers=%d: the panicking item is not counted as one failed score", workers)
		}
		ts.Close()
	}
}
