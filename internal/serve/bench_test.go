package serve

// Serving-side hot-path benchmarks. scripts/bench.sh runs these and
// distills BENCH_serving.json — scores/sec serially and across all cores,
// allocs/op on the memoized single-score path, and p50/p99 latency through
// the admission gate. The fixtures score real trained-pipeline curves so
// the uncached numbers include genuine predictor work, while the cached
// numbers isolate the memoized steady state the curve cache was built for.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"tasq/internal/jobrepo"
	"tasq/internal/model"
	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

type benchFixture struct {
	srv      *Server
	ts       *httptest.Server
	recs     []*jobrepo.Record
	reqs     []*ScoreRequest
	payloads [][]byte
}

func newBenchFixture(b *testing.B, opts ...Option) *benchFixture {
	b.Helper()
	p, recs := trainedCachePipeline(b)
	return benchFixtureOver(b, p, recs, opts...)
}

// fullPipeline trains all four predictors once per test binary, small
// enough for the one-iteration smoke: the miss-path and plan-resolution
// benchmarks need the NN (the default policy's pick) and the GNN, which
// trainedCachePipeline skips.
var fullPipeline = sync.OnceValues(func() (*trainer.Pipeline, []*jobrepo.Record) {
	g := workload.New(workload.TestConfig(41))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(30), &ex); err != nil {
		panic(err)
	}
	cfg := trainer.DefaultConfig(42)
	cfg.XGB.NumTrees = 60
	cfg.NN.Epochs = 5
	cfg.GNN.Epochs = 1
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		panic(err)
	}
	return p, repo.All()
})

func benchFixtureOver(b *testing.B, p *trainer.Pipeline, recs []*jobrepo.Record, opts ...Option) *benchFixture {
	b.Helper()
	srv, err := NewServer(p, opts...)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	f := &benchFixture{srv: srv, ts: ts, recs: recs}
	for _, rec := range recs {
		req := &ScoreRequest{Job: rec.Job}
		payload, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		f.reqs = append(f.reqs, req)
		f.payloads = append(f.payloads, payload)
	}
	return f
}

// warm runs every request once so steady-state iterations hit the cache.
func (f *benchFixture) warm(b *testing.B) {
	b.Helper()
	for _, req := range f.reqs {
		resp, err := f.srv.score(req)
		if err != nil {
			b.Fatal(err)
		}
		putScoreResponse(resp)
	}
}

func (f *benchFixture) post(b *testing.B, payload []byte) {
	resp, err := http.Post(f.ts.URL+"/v1/score", "application/json", bytes.NewReader(payload))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkScoreSingle measures one in-process score call — the memoized
// hit path against the full predictor path — with allocs/op reported, the
// number the TestScoreAllocsGate ceiling pins.
func BenchmarkScoreSingle(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		f := newBenchFixture(b)
		f.warm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := f.srv.score(f.reqs[i%len(f.reqs)])
			if err != nil {
				b.Fatal(err)
			}
			putScoreResponse(resp)
		}
	})
	// The miss path per predictor: validate, featurize, infer (and for the
	// boosted trees fit the curve over the ±40% grid). "nn" is what the
	// default policy serves.
	b.Run("uncached", func(b *testing.B) {
		for _, m := range []struct{ slug, name string }{
			{"nn", model.NameNN}, {"gnn", model.NameGNN}, {"xgbpl", model.NameXGBPL}, {"xgbss", model.NameXGBSS},
		} {
			b.Run(m.slug, func(b *testing.B) {
				p, recs := fullPipeline()
				f := benchFixtureOver(b, p, recs, WithCurveCache(0))
				for _, req := range f.reqs {
					req.Model = m.name
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := f.srv.score(f.reqs[i%len(f.reqs)])
					if err != nil {
						b.Fatal(err)
					}
					putScoreResponse(resp)
				}
			})
		}
	})
}

// BenchmarkPlanResolve1000 is a 1,000-job FCFS PlanLocal — curve
// resolution plus plan.Build, no JSON — against a fresh server, where every
// curve is a miss (what each hot reload or promotion makes of the
// recurring working set), and against a primed cache. It lands in
// BENCH_planner.json beside BenchmarkPlanBuild1000, whose share of the
// warm number is the Build.
func BenchmarkPlanResolve1000(b *testing.B) {
	const jobsPerPlan = 1000
	p, _ := fullPipeline()
	req := &PlanRequest{
		Jobs:           workload.New(workload.TestConfig(43)).Workload(jobsPerPlan),
		CapacityTokens: 20000,
	}
	run := func(b *testing.B, fresh bool) {
		srv, err := NewServer(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.PlanLocal(req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fresh {
				b.StopTimer()
				if srv, err = NewServer(p); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, err := srv.PlanLocal(req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(jobsPerPlan, "jobs/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}

// BenchmarkScoreSerial is one client scoring over HTTP through the
// admission gate — JSON decode, cache, encode, instrumentation included.
func BenchmarkScoreSerial(b *testing.B) {
	f := newBenchFixture(b)
	f.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.post(b, f.payloads[i%len(f.payloads)])
	}
}

// BenchmarkScoreCacheFill fills a fresh 4,096-curve cache from ad-hoc
// traffic's key stream, 1,024 jobs each asked of the four predictors, and
// reports the live heap the full cache retains per curve (B/curve).
func BenchmarkScoreCacheFill(b *testing.B) {
	keys := predictorKeys(adhocJobs(1024))
	val := cachedScore{curve: pcc.Curve{A: -0.5, B: 100}, model: trainer.ModelNN}
	met := newCacheMetrics(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newCurveCache(DefaultCurveCacheCap, met)
		for _, k := range keys {
			cachePut(c, k, val)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(keys)), "jobs/op")
	b.ReportMetric(retainedPerCurve(b, keys), "B/curve")
}

// BenchmarkScoreParallel saturates the endpoint from GOMAXPROCS client
// goroutines — the machine-wide scores/sec headline.
func BenchmarkScoreParallel(b *testing.B) {
	f := newBenchFixture(b)
	f.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.post(b, f.payloads[i%len(f.payloads)])
			i++
		}
	})
}

// BenchmarkScoreGateLatency reports p50/p99 request latency through the
// admission gate alongside the usual ns/op.
func BenchmarkScoreGateLatency(b *testing.B) {
	f := newBenchFixture(b)
	f.warm(b)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		f.post(b, f.payloads[i%len(f.payloads)])
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p int) float64 {
		idx := len(lat) * p / 100
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx].Nanoseconds()) / 1e3
	}
	b.ReportMetric(pct(50), "p50_us")
	b.ReportMetric(pct(99), "p99_us")
}

// BenchmarkDecodeScoreRequest decodes recurring-job /v1/score bodies
// (14 KB on average, the benchmark population's templates) through the
// handler's decode path, decodeBody: the in-package baseline for a
// faster decoder. The request and readers are reused, so allocs/op are
// the decoder's own.
func BenchmarkDecodeScoreRequest(b *testing.B) {
	cfg := workload.TestConfig(1)
	cfg.AdHocFraction = 0
	jobs := workload.New(cfg).Workload(256)
	bodies := make([][]byte, len(jobs))
	readers := make([]*bytes.Reader, len(jobs))
	closers := make([]io.ReadCloser, len(jobs))
	total := 0
	for i, job := range jobs {
		body, err := json.Marshal(&ScoreRequest{Job: job})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i], readers[i] = body, bytes.NewReader(body)
		closers[i] = io.NopCloser(readers[i])
		total += len(body)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/score", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		readers[k].Reset(bodies[k])
		r.Body = closers[k]
		var req ScoreRequest
		if !decodeBody(w, r, &req) {
			b.Fatalf("decoding body %d: %s", k, w.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(len(bodies)), "body_bytes")
}

// BenchmarkBatchScore fans a full batch through the worker pool; the
// constant jobs/op metric lets bench.sh derive per-job throughput.
func BenchmarkBatchScore(b *testing.B) {
	f := newBenchFixture(b)
	f.warm(b)
	batch := &BatchScoreRequest{}
	for i := 0; i < 64; i++ {
		batch.Items = append(batch.Items, *f.reqs[i%len(f.reqs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.srv.scoreBatch(batch)
		if out.Failed != 0 {
			b.Fatalf("%d batch items failed", out.Failed)
		}
		for j := range out.Results {
			putScoreResponse(out.Results[j].Response)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(batch.Items)), "jobs/op")
}

// benchDiscardSink accepts every telemetry record, isolating the ingest
// plumbing (HTTP decode, validation, gate) from any particular consumer.
type benchDiscardSink struct{}

func (benchDiscardSink) IngestTelemetry(recs []*jobrepo.Record) (int, error) {
	return len(recs), nil
}

// BenchmarkScoreCachedTelemetryIngest guards the autopilot's zero-cost
// promise on the hot path: the memoized score path is timed while a
// background producer streams observed-run batches through POST
// /v1/telemetry at a steady telemetry-like rate. Ingest shares no lock
// with scoring, so cached ns/op and allocs/op must stay in line with
// ScoreSingle/cached in BENCH_serving.json.
func BenchmarkScoreCachedTelemetryIngest(b *testing.B) {
	f := newBenchFixture(b, WithTelemetry(benchDiscardSink{}))
	f.warm(b)
	payload, err := json.Marshal(&TelemetryRequest{Records: f.recs})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(f.ts.URL+"/v1/telemetry", "application/json", bytes.NewReader(payload))
			if err != nil {
				return // server torn down at benchmark end
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Jobs complete orders of magnitude slower than they score;
			// a batch every 500µs is already an aggressive feedback rate.
			time.Sleep(500 * time.Microsecond)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := f.srv.score(f.reqs[i%len(f.reqs)])
		if err != nil {
			b.Fatal(err)
		}
		putScoreResponse(resp)
	}
	b.StopTimer()
	close(stop)
	<-done
}
