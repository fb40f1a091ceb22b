package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// The fuzz targets below push arbitrary bytes through Server.Handler()
// for each JSON endpoint, the service's trust boundary. Whatever a client
// sends, the handler must neither panic nor answer 500: a request it
// cannot serve is the client's to fix, so it gets a typed 4xx.

// fuzzPipeline is one small trained pipeline (8-tree XGBoost, NN and GNN
// skipped, so naming them takes the 409 path), shared by every fuzz
// target in the binary.
var fuzzPipeline = sync.OnceValue(func() *trainer.Pipeline {
	g := workload.New(workload.TestConfig(61))
	repo := jobrepo.New()
	if err := repo.Ingest(g.Workload(30), &scopesim.Executor{}); err != nil {
		panic(err)
	}
	cfg := trainer.DefaultConfig(61)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		panic(err)
	}
	return p
})

// acceptSink is the telemetry stub: it takes every valid record.
type acceptSink struct{}

func (acceptSink) IngestTelemetry(recs []*jobrepo.Record) (int, error) { return len(recs), nil }

// fuzzJob is a small valid job in wire form: one operator in one stage.
// Seeds are written out by hand and kept to a few hundred bytes, because
// the fuzzer minimizes every input that finds new coverage, and on a
// workload job's marshalled JSON that takes it the whole run.
const fuzzJob = `{"ID":"j","Operators":[{"Kind":0,"Est":{"OutputCardinality":1000,"AvgRowLength":64,"TotalCost":2,"NumPartitions":4}}],"Stages":[{"Tasks":4,"TaskSeconds":3}],"RequestedTokens":8}`

// fuzzHandler seeds f with the given requests (J standing for fuzzJob)
// plus two malformed bodies, and returns the handler under test.
func fuzzHandler(f *testing.F, seeds ...string) http.Handler {
	srv, err := NewServer(fuzzPipeline(), WithTelemetry(acceptSink{}), withWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(seeds, `{`, `null`) {
		f.Add([]byte(strings.ReplaceAll(s, "J", fuzzJob)))
	}
	return srv.Handler()
}

// addWireBoundSeeds seeds f with body (J standing for the job) once per
// wireBoundCases edit of fuzzJob.
func addWireBoundSeeds(f *testing.F, body string) {
	for _, c := range wireBoundCases {
		f.Add([]byte(strings.ReplaceAll(body, "J", strings.Replace(fuzzJob, c.from, c.to, 1))))
	}
}

// postTyped sends body to route and fails unless the answer is one of the
// typed statuses the route may give.
func postTyped(t *testing.T, h http.Handler, route string, body []byte, typed ...int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	for _, code := range typed {
		if rec.Code == code {
			return
		}
	}
	t.Fatalf("POST %s %q: status %d (%s), want one of %v", route, body, rec.Code, rec.Body.Bytes(), typed)
}

func FuzzScoreRequest(f *testing.F) {
	h := fuzzHandler(f,
		`{"job":J}`,
		`{"job":J,"model":"xgboost-pl","threshold":0.05,"max_tokens":40,"candidate_tokens":[1,8,64]}`,
		`{"job":J,"model":"nn"}`,
	)
	f.Add(readLegacy(f, "legacy_score.json"))
	addWireBoundSeeds(f, `{"job":J}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		postTyped(t, h, "/v1/score", body, http.StatusOK, http.StatusBadRequest, http.StatusConflict)
	})
}

func FuzzPlanRequest(f *testing.F) {
	h := fuzzHandler(f,
		`{"jobs":[J,J],"capacity_tokens":400}`,
		`{"jobs":[J,J],"capacity_tokens":400,"policy":"peak","strategy":"backfill","arrival_seconds":[0,5],"deadline_seconds":[0,900],"tenants":["a","b"],"quotas":{"a":300}}`,
		`{"jobs":[J],"capacity_tokens":400,"strategy":"retry","model":"AutoToken"}`,
	)
	f.Fuzz(func(t *testing.T, body []byte) {
		postTyped(t, h, "/v1/plan", body, http.StatusOK, http.StatusBadRequest, http.StatusConflict)
	})
}

func FuzzTelemetryRequest(f *testing.F) {
	h := fuzzHandler(f,
		`{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,4,2]}]}`,
		`{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,4,2]},null,{"job":J}]}`,
		`{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,2147483648,2]}]}`,
	)
	addWireBoundSeeds(f, `{"records":[{"job":J,"observed_tokens":4,"runtime_seconds":3,"skyline":[4,4,2]}]}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		postTyped(t, h, "/v1/telemetry", body, http.StatusOK, http.StatusBadRequest)
	})
}
