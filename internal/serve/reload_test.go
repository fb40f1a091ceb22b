package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tasq/internal/jobrepo"
	"tasq/internal/pcc"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// registryPipeline trains one small pipeline for registry-backed tests.
func registryPipeline(t *testing.T, seed int64) (*trainer.Pipeline, []*jobrepo.Record) {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(30), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(seed)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, repo.All()
}

// registryServer opens a fresh registry with one published version and a
// registry-backed server synced to it.
func registryServer(t *testing.T, opts ...Option) (*registry.Registry, *Server, *Reloader, *httptest.Server, []*jobrepo.Record) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, recs := registryPipeline(t, 51)
	if _, err := reg.PublishPipeline(p, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewUnloadedServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := NewReloader(reg, srv, time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Sync(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return reg, srv, rl, ts, recs
}

// waitForMetric polls /metrics until the wanted sample line appears.
func waitForMetric(t *testing.T, client *Client, want string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		m, err := client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(m, want+"\n") {
			return m
		}
		last = m
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %q never appeared; last /metrics:\n%s", want, last)
	return ""
}

// TestHotReloadUnderLoad is the acceptance scenario of the ISSUE: publish
// v2 into the registry while scoring requests are in flight, and watch
// the running server swap generations without a restart or a failed
// request — the /metrics version gauge flips from 1 to 2.
func TestHotReloadUnderLoad(t *testing.T) {
	reg, srv, rl, ts, recs := registryServer(t)
	client := NewClient(ts.URL)

	if srv.ActiveVersion() != 1 {
		t.Fatalf("initial active version %d, want 1", srv.ActiveVersion())
	}
	waitForMetric(t, client, `tasq_model_version{role="active"} 1`)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		rl.Run(ctx)
		close(runDone)
	}()
	defer func() {
		cancel()
		<-runDone // t.Logf must not fire after the test returns
	}()

	// Live traffic throughout the swap.
	var stop atomic.Bool
	var sawV2 atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			job := recs[w%len(recs)].Job
			for !stop.Load() {
				resp, err := client.Score(context.Background(), &ScoreRequest{Job: job})
				if err != nil {
					errCh <- err
					return
				}
				if resp.ModelVersion == 2 {
					sawV2.Store(true)
				}
			}
		}(w)
	}

	// Publish v2 mid-flight.
	p2, _ := registryPipeline(t, 53)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{Notes: "candidate"}); err != nil {
		t.Fatal(err)
	}

	waitForMetric(t, client, `tasq_model_version{role="active"} 2`)

	// Let a few post-swap scores through, then stop the load.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("in-flight request failed across the swap: %v", err)
	}
	if srv.ActiveVersion() != 2 {
		t.Fatalf("active version %d after publish, want 2", srv.ActiveVersion())
	}
	if !sawV2.Load() {
		t.Fatal("no response ever carried model_version 2")
	}
}

// TestShadowScoringDivergenceMetrics pins the pin-then-candidate flow:
// with v1 pinned and v2 published, a sample of live scores is mirrored to
// v2 and per-candidate divergence series appear in /metrics; unpinning
// promotes v2 and clears the shadow.
func TestShadowScoringDivergenceMetrics(t *testing.T) {
	reg, srv, rl, ts, recs := registryServer(t)
	client := NewClient(ts.URL)

	if err := reg.Pin(1); err != nil {
		t.Fatal(err)
	}
	p2, _ := registryPipeline(t, 59)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	if err := rl.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.ActiveVersion() != 1 || srv.ShadowVersion() != 2 {
		t.Fatalf("active v%d shadow v%d, want v1/v2", srv.ActiveVersion(), srv.ShadowVersion())
	}

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := client.Score(context.Background(), &ScoreRequest{Job: recs[i%len(recs)].Job}); err != nil {
			t.Fatal(err)
		}
	}
	m := waitForMetric(t, client, `tasq_shadow_scores_total{candidate="v2"} 6`)
	for _, want := range []string{
		`tasq_model_version{role="active"} 1`,
		`tasq_model_version{role="shadow"} 2`,
		`# TYPE tasq_shadow_optimal_disagreement_total counter`,
		`# TYPE tasq_shadow_runtime_rel_delta histogram`,
		`tasq_shadow_runtime_rel_delta_count{candidate="v2"} 6`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, m)
		}
	}

	// Promote: unpin → latest becomes active, shadow cleared.
	if err := reg.Unpin(); err != nil {
		t.Fatal(err)
	}
	if err := rl.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.ActiveVersion() != 2 || srv.ShadowVersion() != 0 {
		t.Fatalf("after unpin: active v%d shadow v%d, want v2/none", srv.ActiveVersion(), srv.ShadowVersion())
	}
	waitForMetric(t, client, `tasq_model_version{role="shadow"} 0`)
}

func TestShadowSampleRate(t *testing.T) {
	shadowed := &fakeScorer{curve: pcc.Curve{A: -0.4, B: 90}}
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}},
		WithShadowSampleRate(0.5))
	srv.setShadow(shadowed, 7)
	client := NewClient(ts.URL)
	for i := 0; i < 8; i++ {
		if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("s")}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, `tasq_shadow_scores_total{candidate="v7"} 4`+"\n") {
		t.Fatalf("0.5 sampling did not mirror every second request:\n%s", m)
	}

	// Rate 0 disables mirroring entirely.
	srvOff, tsOff := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}},
		WithShadowSampleRate(0))
	srvOff.setShadow(shadowed, 9)
	clientOff := NewClient(tsOff.URL)
	for i := 0; i < 4; i++ {
		if _, err := clientOff.Score(context.Background(), &ScoreRequest{Job: validJob("s")}); err != nil {
			t.Fatal(err)
		}
	}
	mOff, err := clientOff.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mOff, `tasq_shadow_scores_total{candidate="v9"} 0`+"\n") {
		t.Fatalf("rate 0 still mirrored requests:\n%s", mOff)
	}
}

func TestShadowFailureCounted(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	srv.setShadow(&fakeScorer{err: errors.New("candidate broken")}, 3)
	client := NewClient(ts.URL)
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("f")}); err != nil {
		t.Fatalf("active scoring must not be affected by a broken shadow: %v", err)
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, `tasq_shadow_score_failures_total{candidate="v3"} 1`+"\n") {
		t.Fatalf("shadow failure not counted:\n%s", m)
	}
}

func TestUnloadedServerAnswers503(t *testing.T) {
	srv, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	var se *StatusError
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("u")}); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded score error %v, want 503", err)
	}
	if err := client.Ready(context.Background()); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded readyz %v, want 503", err)
	}

	// First SetActive brings the server up.
	p, _ := registryPipeline(t, 61)
	if err := srv.SetActive(p, 4); err != nil {
		t.Fatal(err)
	}
	if err := client.Ready(context.Background()); err != nil {
		t.Fatalf("ready after first load: %v", err)
	}
	resp, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("u")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 4 {
		t.Fatalf("model version %d, want 4", resp.ModelVersion)
	}
	if srv.SetActive(nil, 5) == nil {
		t.Fatal("nil pipeline swap accepted")
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	reg, _, _, ts, _ := registryServer(t)
	client := NewClient(ts.URL)

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/admin/reload status %d", resp.StatusCode)
	}

	p2, _ := registryPipeline(t, 67)
	if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
		t.Fatal(err)
	}
	out, err := client.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.ActiveVersion != 2 || out.ShadowVersion != 0 {
		t.Fatalf("reload response %+v, want active 2", out)
	}
}

func TestAdminReloadWithoutRegistry(t *testing.T) {
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}})
	_, err := NewClient(ts.URL).Reload(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("reload without registry: %v, want 501", err)
	}
}
