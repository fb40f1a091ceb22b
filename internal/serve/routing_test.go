package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tasq/internal/model"
	"tasq/internal/pcc"
)

// TestScoreModelRouting drives the `model` request field through the
// public API against a SkipGNN pipeline: valid names (canonical, aliased)
// serve and echo the canonical name, unknown names — the unserved §6.3
// simulators included — are ErrUnknownModel client errors, and the
// known-but-untrained GNN is a 409 conflict.
func TestScoreModelRouting(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	job := recs[0].Job

	cases := []struct {
		name       string
		reqModel   string
		wantModel  string // non-empty: expect success echoing this name
		wantStatus int    // non-zero: expect a StatusError with this code
	}{
		{"default policy", "", model.NameNN, 0},
		{"canonical", "NN", model.NameNN, 0},
		{"alias lowercased dashed", "xgboost-pl", model.NameXGBPL, 0},
		{"tabulated model", "XGBoost SS", model.NameXGBSS, 0},
		{"baseline jockey", "jockey", "", http.StatusBadRequest},
		{"baseline amdahl", "Amdahl", "", http.StatusBadRequest},
		{"unknown model", "resnet", "", http.StatusBadRequest},
		{"untrained model", "gnn", "", http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Score(&ScoreRequest{Job: job, Model: tc.reqModel})
			if tc.wantStatus != 0 {
				var se *StatusError
				if !errors.As(err, &se) || se.Code != tc.wantStatus {
					t.Fatalf("model %q: got %v, want status %d", tc.reqModel, err, tc.wantStatus)
				}
				if tc.wantStatus == http.StatusBadRequest && !strings.Contains(se.Message, model.ErrUnknownModel.Error()) {
					t.Fatalf("model %q: message %q, want %q", tc.reqModel, se.Message, model.ErrUnknownModel)
				}
				return
			}
			if err != nil {
				t.Fatalf("model %q: %v", tc.reqModel, err)
			}
			if resp.Model != tc.wantModel {
				t.Fatalf("model %q served by %q, want %q", tc.reqModel, resp.Model, tc.wantModel)
			}
			if !resp.CurveValue().Valid() {
				t.Fatalf("model %q: invalid curve %+v", tc.reqModel, resp.Curve)
			}
		})
	}
}

// TestBatchPerItemModelRouting mixes per-item model names in one batch:
// each item routes independently and failures carry the single-score
// error contract (400 unknown, 409 untrained) without touching siblings;
// the unserved §6.3 simulators are unknown.
func TestBatchPerItemModelRouting(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	job := recs[0].Job

	resp, err := client.ScoreBatch(&BatchScoreRequest{Items: []ScoreRequest{
		{Job: job},                      // policy default
		{Job: job, Model: "xgboost pl"}, // named
		{Job: job, Model: "resnet"},     // unknown -> 400
		{Job: job, Model: "gnn"},        // skipped in training -> 409
		{Job: job, Model: "XGBoost-SS"}, // normalization strips space/dash
		{Job: job, Model: "amdahl"},     // not served -> 400
		{Job: job, Model: "Jockey"},     // not served -> 400
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 3 || resp.Failed != 4 {
		t.Fatalf("succeeded=%d failed=%d, want 3/4", resp.Succeeded, resp.Failed)
	}
	wantModel := map[int]string{0: model.NameNN, 1: model.NameXGBPL, 4: model.NameXGBSS}
	wantStatus := map[int]int{2: http.StatusBadRequest, 3: http.StatusConflict, 5: http.StatusBadRequest, 6: http.StatusBadRequest}
	for _, res := range resp.Results {
		if want, ok := wantModel[res.Index]; ok {
			if res.Status != http.StatusOK || res.Response == nil || res.Response.Model != want {
				t.Fatalf("item %d: status %d response %+v, want model %s", res.Index, res.Status, res.Response, want)
			}
		}
		if want, ok := wantStatus[res.Index]; ok {
			if res.Status != want || res.Response != nil {
				t.Fatalf("item %d: status %d (response %+v), want %d", res.Index, res.Status, res.Response, want)
			}
			if want == http.StatusBadRequest && !strings.Contains(res.Error, model.ErrUnknownModel.Error()) {
				t.Fatalf("item %d: error %q, want %q", res.Index, res.Error, model.ErrUnknownModel)
			}
		}
	}
}

// TestModelsEndpoint lists the predictor set of the SkipGNN pipeline:
// every registered name appears once, baselines are labeled as such, and
// the skipped GNN reports untrained.
func TestModelsEndpoint(t *testing.T) {
	ts, _ := trainedServer(t)
	client := NewClient(ts.URL)
	resp, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]model.Info{}
	for _, info := range resp.Models {
		byName[info.Name] = info
	}
	want := []string{
		model.NameXGBSS, model.NameXGBPL, model.NameNN, model.NameGNN,
		model.NameAutoToken,
	}
	if len(byName) != len(want) {
		t.Fatalf("got models %v, want %v", resp.Models, want)
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Fatalf("model %s missing from %v", name, resp.Models)
		}
	}
	if info := byName[model.NameGNN]; info.Trained || info.Kind != string(model.KindTrained) {
		t.Fatalf("GNN info %+v: want untrained kind=trained", info)
	}
	if info := byName[model.NameNN]; !info.Trained {
		t.Fatalf("NN info %+v: want trained", info)
	}
	if info := byName[model.NameAutoToken]; !info.Trained || info.Kind != string(model.KindBaseline) {
		t.Fatalf("AutoToken info %+v: want trained baseline", info)
	}

	// Wrong method.
	httpResp, err := http.Post(ts.URL+"/v1/models", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models status %d", httpResp.StatusCode)
	}
}

// TestModelsEndpointWithoutLister degrades to an empty list when the
// loaded scorer cannot enumerate predictors, and to 503 when no model is
// loaded at all.
func TestModelsEndpointWithoutLister(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)
	resp, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 0 {
		t.Fatalf("fake scorer lists models: %+v", resp.Models)
	}

	srv, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	unloaded := httptest.NewServer(srv.Handler())
	t.Cleanup(unloaded.Close)
	var se *StatusError
	if _, err := NewClient(unloaded.URL).Models(); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded /v1/models: %v, want 503", err)
	}
}

// TestModelRoutingRequiresRouter rejects a named-model request against a
// scorer that cannot route by name — a 400, since no retry against this
// deployment can succeed.
func TestModelRoutingRequiresRouter(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	client := NewClient(ts.URL)
	var se *StatusError
	if _, err := client.Score(&ScoreRequest{Job: validJob("j"), Model: "NN"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("named model on non-router scorer: %v, want 400", err)
	}
}

// TestAllPredictorsScoreEndToEnd is the acceptance check for the predictor
// abstraction: one job scored through every registered-and-trained
// predictor — the four trainer models minus the skipped GNN, plus the
// AutoToken baseline — with each response echoing the canonical name it was asked
// for, and the per-model metric series appearing on /metrics.
func TestAllPredictorsScoreEndToEnd(t *testing.T) {
	ts, recs := trainedServer(t)
	client := NewClient(ts.URL)
	models, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}

	// AutoToken only covers jobs from recurring templates with enough
	// history, so pick a job it covers; every other predictor accepts any
	// valid job.
	job := recs[0].Job
	for _, rec := range recs {
		if _, err := client.Score(&ScoreRequest{Job: rec.Job, Model: model.NameAutoToken}); err == nil {
			job = rec.Job
			break
		}
	}

	trained := 0
	for _, info := range models.Models {
		if !info.Trained {
			continue
		}
		trained++
		resp, err := client.Score(&ScoreRequest{Job: job, Model: info.Name})
		if err != nil {
			t.Fatalf("scoring through %s: %v", info.Name, err)
		}
		if resp.Model != info.Name {
			t.Fatalf("asked for %s, response says %s", info.Name, resp.Model)
		}
		if !resp.CurveValue().Valid() {
			t.Fatalf("%s: invalid curve %+v", info.Name, resp.Curve)
		}
	}
	if trained < 4 { // XGB-SS, XGB-PL, NN, AutoToken
		t.Fatalf("only %d trained predictors exercised", trained)
	}

	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{model.NameNN, model.NameXGBPL, model.NameAutoToken} {
		if !strings.Contains(metrics, `tasq_score_total{model="`+name+`"}`) {
			t.Fatalf("per-model series for %s missing from metrics:\n%s", name, metrics)
		}
	}
}
