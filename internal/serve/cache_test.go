package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tasq/internal/jobrepo"
	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// cacheJob builds a valid job whose cache key differs from every other
// index (validJob differs only by ID, which the key deliberately
// excludes).
func cacheJob(i int) *scopesim.Job {
	return &scopesim.Job{
		ID:              fmt.Sprintf("cache-%d", i),
		RequestedTokens: 50 + i,
		Stages:          []scopesim.Stage{{ID: 0, Tasks: 4, TaskSeconds: 2}},
	}
}

func scoreKey(model string, job *scopesim.Job) string {
	kb := getKeyBuf()
	defer putKeyBuf(kb)
	appendScoreKey(kb, model, job)
	return string(kb.b)
}

func TestScoreKeyDiscriminates(t *testing.T) {
	base := func() *scopesim.Job {
		return &scopesim.Job{
			ID:              "a",
			RequestedTokens: 100,
			Template:        "tmpl-1",
			Operators: []scopesim.Operator{
				{ID: 0, Kind: scopesim.OpExtract, Stage: 0, Est: scopesim.OpMetrics{OutputCardinality: 10}},
				{ID: 1, Kind: scopesim.OpProcess, Stage: 0, Children: []int32{0}},
			},
			Stages: []scopesim.Stage{{ID: 0, Tasks: 4, TaskSeconds: 2, Operators: []int32{0, 1}}},
		}
	}
	ref := scoreKey("", base())

	// Identity fields predictors never read share the entry.
	same := base()
	same.ID = "completely-different"
	same.VirtualCluster = "vc-other"
	same.SubmitTime = time.Unix(12345, 0)
	if scoreKey("", same) != ref {
		t.Fatal("key depends on job identity fields")
	}

	// Every feature a predictor may read must discriminate.
	mutations := map[string]func(*scopesim.Job){
		"requested tokens": func(j *scopesim.Job) { j.RequestedTokens = 101 },
		"template":         func(j *scopesim.Job) { j.Template = "tmpl-2" },
		"operator kind":    func(j *scopesim.Job) { j.Operators[0].Kind = scopesim.OpProcess },
		"operator stage":   func(j *scopesim.Job) { j.Operators[1].Stage = 0; j.Operators[0].Stage = 0 },
		"operator children": func(j *scopesim.Job) {
			j.Operators[1].Children = nil
		},
		"est cardinality": func(j *scopesim.Job) { j.Operators[0].Est.OutputCardinality = 11 },
		"est cost":        func(j *scopesim.Job) { j.Operators[1].Est.TotalCost = 0.5 },
		"est partitions":  func(j *scopesim.Job) { j.Operators[0].Est.NumPartitions = 8 },
		"stage tasks":     func(j *scopesim.Job) { j.Stages[0].Tasks = 5 },
		"stage seconds":   func(j *scopesim.Job) { j.Stages[0].TaskSeconds = 3 },
		"stage operators": func(j *scopesim.Job) { j.Stages[0].Operators = []int32{0} },
	}
	for name, mutate := range mutations {
		j := base()
		mutate(j)
		key := scoreKey("", j)
		if name == "operator stage" {
			// This mutation is a no-op by construction; skip equality.
			continue
		}
		if key == ref {
			t.Errorf("%s mutation does not change the cache key", name)
		}
	}

	// Model routing is part of the key, normalized like the Mux.
	if scoreKey("nn", base()) == scoreKey("gnn", base()) {
		t.Fatal("different models share a key")
	}
	if scoreKey("XGBoost PL", base()) != scoreKey("xgboost-pl", base()) {
		t.Fatal("normalized model spellings do not share a key")
	}
	if scoreKey("XGBoost PL", base()) != scoreKey("xgboost_pl", base()) {
		t.Fatal("underscore model spelling does not share a key")
	}
}

// cacheCounters reads the curve-cache series off a server's registry.
func cacheCounters(s *Server) (hits, misses, evictions, size int64) {
	return s.reg.Counter(obs.MetricCurveCacheHits).Value(),
		s.reg.Counter(obs.MetricCurveCacheMisses).Value(),
		s.reg.Counter(obs.MetricCurveCacheEvictions).Value(),
		s.reg.Gauge(obs.MetricCurveCacheSize).Value()
}

func TestCurveCacheHitAndCounters(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	req := &ScoreRequest{Job: cacheJob(0)}

	first, err := srv.score(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.score(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Curve != second.Curve || first.Model != second.Model ||
		first.OptimalTokens != second.OptimalTokens {
		t.Fatalf("hit response differs: %+v vs %+v", first, second)
	}
	hits, misses, evictions, size := cacheCounters(srv)
	if hits != 1 || misses != 1 || evictions != 0 || size != 1 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d size=%d, want 1/1/0/1",
			hits, misses, evictions, size)
	}
}

func TestCurveCacheDisabled(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, withCurveCache(0))
	req := &ScoreRequest{Job: cacheJob(0)}
	for i := 0; i < 3; i++ {
		if _, err := srv.score(req); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _, size := cacheCounters(srv)
	if hits != 0 || misses != 0 || size != 0 {
		t.Fatalf("disabled cache moved: hits=%d misses=%d size=%d", hits, misses, size)
	}
}

func TestCurveCacheLRUEviction(t *testing.T) {
	// Capacity under the shard count collapses to one shard, making the
	// LRU order exact.
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, withCurveCache(3))
	score := func(i int) {
		t.Helper()
		if _, err := srv.score(&ScoreRequest{Job: cacheJob(i)}); err != nil {
			t.Fatal(err)
		}
	}
	score(1)
	score(2)
	score(3) // cache: 3,2,1 (MRU first)
	score(1) // hit → 1,3,2
	score(4) // evicts 2 → 4,1,3
	hits, misses, evictions, size := cacheCounters(srv)
	if hits != 1 || misses != 4 || evictions != 1 || size != 3 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d size=%d, want 1/4/1/3",
			hits, misses, evictions, size)
	}
	score(2) // the evicted one must miss again
	if h, m, _, _ := cacheCounters(srv); h != 1 || m != 5 {
		t.Fatalf("evicted entry served from cache: hits=%d misses=%d", h, m)
	}
	score(4) // the survivor must hit
	if h, _, _, _ := cacheCounters(srv); h != 2 {
		t.Fatal("resident entry missed")
	}
}

func TestCurveCacheInvalidatedOnSwap(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	req := &ScoreRequest{Job: cacheJob(0)}
	if _, err := srv.score(req); err != nil { // prime v0's cache
		t.Fatal(err)
	}

	srv.setActive(&fakeScorer{curve: pcc.Curve{A: -0.25, B: 40}}, 2)
	resp, err := srv.score(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 2 {
		t.Fatalf("served by v%d after swap, want 2", resp.ModelVersion)
	}
	if resp.Curve.A != -0.25 || resp.Curve.B != 40 {
		t.Fatalf("stale curve after swap: %+v", resp.Curve)
	}
	// The post-swap score was a miss against the fresh cache.
	hits, misses, _, size := cacheCounters(srv)
	if hits != 0 || misses != 2 || size != 1 {
		t.Fatalf("counters hits=%d misses=%d size=%d after swap, want 0/2/1", hits, misses, size)
	}
}

// TestCurveCacheHitSkipsValidationOnlyForValidJobs pins the contract that
// an invalid job can never ride the validation-skipping hit path: every
// Validate invariant is part of the key, so the invalid variant misses
// and reaches Validate.
func TestCurveCacheInvalidJobStillRejected(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	good := cacheJob(0)
	if _, err := srv.score(&ScoreRequest{Job: good}); err != nil {
		t.Fatal(err)
	}
	bad := cacheJob(0)
	bad.Stages[0].ID = 7 // breaks Validate, identical otherwise
	_, err := srv.score(&ScoreRequest{Job: bad})
	var re *requestError
	if !errors.As(err, &re) {
		t.Fatalf("invalid job after priming: %v, want 400 requestError", err)
	}
}

func TestCurveCacheConcurrentEviction(t *testing.T) {
	// Far more distinct jobs than capacity, hammered concurrently: every
	// response must still carry the exact fake curve (run with -race).
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, withCurveCache(8))
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				resp, err := srv.score(&ScoreRequest{Job: cacheJob((w + i) % 32)})
				if err != nil {
					errs <- err
					return
				}
				if resp.Curve.A != -0.5 || resp.Curve.B != 100 {
					errs <- fmt.Errorf("corrupt curve under eviction pressure: %+v", resp.Curve)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if _, _, evictions, size := cacheCounters(srv); evictions == 0 || size > 8 {
		t.Fatalf("evictions=%d size=%d, want evictions > 0 and size <= 8", evictions, size)
	}
}

// trainedCachePipeline is the small trained pipeline shared by the
// byte-identity test and the serving benchmarks (XGB-only keeps training
// fast while exercising the full predictor path).
func trainedCachePipeline(tb testing.TB) (*trainer.Pipeline, []*jobrepo.Record) {
	tb.Helper()
	g := workload.New(workload.TestConfig(41))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(30), &ex); err != nil {
		tb.Fatal(err)
	}
	cfg := trainer.DefaultConfig(42)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p, repo.All()
}

// TestCurveCacheHitByteIdentical proves the acceptance criterion head-on:
// over the wire, a cache hit is byte-for-byte the response an uncached
// server produces for the same request.
func TestCurveCacheHitByteIdentical(t *testing.T) {
	p, recs := trainedCachePipeline(t)
	cachedSrv, cachedTS := pipelineServer(t, p)
	_, uncachedTS := pipelineServer(t, p, withCurveCache(0))

	for i, rec := range recs[:8] {
		payload, err := json.Marshal(&ScoreRequest{Job: rec.Job})
		if err != nil {
			t.Fatal(err)
		}
		uncached := postBody(t, uncachedTS.URL+"/v1/score", payload)
		prime := postBody(t, cachedTS.URL+"/v1/score", payload) // miss
		hit := postBody(t, cachedTS.URL+"/v1/score", payload)   // hit
		if !bytes.Equal(prime, uncached) {
			t.Fatalf("job %d: miss response differs from uncached server:\n%s\nvs\n%s", i, prime, uncached)
		}
		if !bytes.Equal(hit, uncached) {
			t.Fatalf("job %d: cache hit not byte-identical to uncached scoring:\n%s\nvs\n%s", i, hit, uncached)
		}
	}
	if hits, _, _, _ := cacheCounters(cachedSrv); hits < 8 {
		t.Fatalf("cache hits %d, want >= 8 (the identity test must exercise the hit path)", hits)
	}
}

// withCurveCache sets the per-generation curve-cache capacity, which
// servers otherwise take from DefaultCurveCacheCap; 0 disables
// memoization, so every request runs the full predictor.
func withCurveCache(capacity int) Option {
	return func(s *Server) { s.cacheCap = capacity }
}

// withWorkers bounds the batch-scoring and plan-resolution worker pool,
// which servers otherwise size to runtime.NumCPU().
func withWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}

func pipelineServer(t *testing.T, p *trainer.Pipeline, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postBody(t *testing.T, url string, payload []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// scoreAllocsCeiling is the pinned allocs/op regression gate for the
// cached single-score steady state. The warm hit path allocates nothing
// itself (pooled key buffer and response, exact-key map probe, cached
// counter handle); the ceiling leaves headroom only for sync.Pool's
// occasional GC-cleared refill.
const scoreAllocsCeiling = 2

// missAllocsCeiling pins the uncached score the same way. What is left
// after inference left the autodiff tape is Job.Validate's stage-order
// scratch, the predictor lookup and the stored entry; the tape alone used
// to cost 96.
const missAllocsCeiling = 30

func TestScoreAllocsGate(t *testing.T) {
	srv, _ := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	req := &ScoreRequest{Job: cacheJob(0)}
	if _, err := srv.score(req); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := srv.score(req)
		if err != nil {
			t.Fatal(err)
		}
		putScoreResponse(resp)
	})
	if allocs > scoreAllocsCeiling {
		t.Fatalf("cached single-score path allocates %.1f/op, ceiling %d", allocs, scoreAllocsCeiling)
	}

	// The miss path under the default policy, on a real pipeline: key,
	// lookup, Job.Validate, features, the NN's tape-free forward pass and
	// the cache insert, a never-seen key every run.
	p, recs := fullPipeline()
	psrv, err := NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	job := *recs[0].Job
	miss := &ScoreRequest{Job: &job}
	_, m0, _, _ := cacheCounters(psrv)
	allocs = testing.AllocsPerRun(200, func() {
		job.RequestedTokens++
		resp, err := psrv.score(miss)
		if err != nil {
			t.Fatal(err)
		}
		putScoreResponse(resp)
	})
	if _, m1, _, _ := cacheCounters(psrv); m1-m0 != 201 { // AllocsPerRun warms up once
		t.Fatalf("%d of 201 scores missed the cache: the gate must time the miss path", m1-m0)
	}
	if allocs > missAllocsCeiling {
		t.Fatalf("uncached default-policy score allocates %.1f/op, ceiling %d", allocs, missAllocsCeiling)
	}
}

// TestHTTPStatusNoTokenBound pins the serving contract for the trainer's
// typed no-search-bound error: a client omission, 400.
func TestHTTPStatusNoTokenBound(t *testing.T) {
	err := fmt.Errorf("serve: scoring: %w", trainer.ErrNoTokenBound)
	if got := httpStatus(err); got != http.StatusBadRequest {
		t.Fatalf("httpStatus(ErrNoTokenBound) = %d, want 400", got)
	}
}
