// Package harness holds the in-process soaks behind the paper's
// system-level claims. Four scenarios run on one kit (kit.go): Run storms
// one tasqd with faults (this file), RunFleet kills and partitions a
// sharded fleet (fleet.go), RunAutopilot drifts the Figure-4 learning
// loop (autopilot.go), and RunPlanSoak pushes the cluster planner to a
// million jobs (plan.go).
//
// Run boots a tasqd-equivalent (registry + reloader + HTTP server) inside
// the test process, drives mixed traffic from concurrent workers while a
// seeded fault injector fails scoring requests, batch items and registry
// reads mid-flight, and asserts the resilience invariants:
//
//   - the server never wedges: every request gets a well-formed response
//     from the allowed status set for its operation;
//   - successful scores are sane: a valid PCC, a known model, a served
//     generation, and run-time predictions monotone non-increasing in the
//     token count (the paper's PCC shape);
//   - overload is shed, not queued unboundedly: saturation produces 429 +
//     Retry-After from a bounded FIFO queue;
//   - hot reload under registry faults never serves a half-loaded
//     generation — a failed sync keeps the previous one;
//   - client-side attempt tallies reconcile exactly with the server's
//     /metrics counters (requests by route/class, sheds by reason,
//     jobs scored);
//   - once the fault storm clears, retrying clients recover to 100%
//     success;
//   - the same seed reproduces the identical fault schedule
//     (faults.Injector.Verify plus the Result's pure-schedule trace).
//
// Everything random is seeded: the fault schedule through
// internal/faults, the per-worker operation mix and the client backoff
// jitter through internal/parallel seed splitting. Timing (goroutine
// interleaving, which request a fault lands on) stays nondeterministic —
// the *schedule* of faults is what replays, and the invariants hold under
// any interleaving.
package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"tasq/internal/faults"
	"tasq/internal/jobrepo"
	"tasq/internal/obs"
	"tasq/internal/parallel"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed fixes the fault schedule, the per-worker op mix and the client
	// backoff jitter.
	Seed int64
	// Dir is the registry root (a fresh temp dir per run).
	Dir string
	// Workers and OpsPerWorker size the storm (defaults 8 × 40).
	Workers      int
	OpsPerWorker int
	// Profile is the fault mix injected during the storm.
	Profile faults.Profile
	// Logf receives progress lines (optional).
	Logf func(format string, args ...any)
}

// Result is what a chaos run observed, for assertions beyond the
// invariants Run already enforces.
type Result struct {
	// Attempts counts every HTTP attempt any harness client made
	// (retries included).
	Attempts int64
	// ByStatus histograms those attempts by wire status (0 = transport
	// error, which the in-process harness treats as an invariant
	// violation).
	ByStatus map[int]int64
	// BatchItemsOK / BatchItemsFailed count per-item outcomes across all
	// successful batch envelopes.
	BatchItemsOK     int64
	BatchItemsFailed int64
	// CircuitOpen counts operations short-circuited by a worker's breaker
	// (no wire attempt made).
	CircuitOpen int64
	// Recovered counts the post-storm scores that all succeeded.
	Recovered int
	// ActiveVersion is the generation serving after the storm settled.
	ActiveVersion int
	// FaultTrace is the pure fault schedule per site (prefix of
	// faultTraceLen decisions as a '0'/'1' string) — equal across
	// same-seed runs by construction, and cross-checked against the
	// injector's recorded firings via Verify.
	FaultTrace map[string]string
	// FiredBySite snapshots how often each site actually fired.
	FiredBySite map[string]faults.SiteStats
}

// Admission bounds of the server under test: tight enough that the storm
// itself exercises shedding.
const (
	chaosMaxInFlight = 4
	chaosMaxQueue    = 4
	chaosQueueWait   = 5 * time.Millisecond
)

// Run executes one chaos/soak scenario end to end and returns what it
// observed. Any invariant violation surfaces as an error.
func Run(cfg Config) (*Result, error) {
	orDefault(&cfg.Workers, 8)
	orDefault(&cfg.OpsPerWorker, 40)
	logf := quiet(cfg.Logf)

	// ---- Boot (faults disabled): registry, v1, server, reloader. ----
	// The staleness oracle covers every model routing a storm 200 can use:
	// the policy chain ("" resolves to XGBoost PL here) and the explicitly
	// requested models.
	p1, p2, recs, oracle, err := trainGenerations("", "xgboost-pl", "xgboost-ss")
	if err != nil {
		return nil, err
	}
	reg, err := openRegistry(cfg.Dir, p1, "")
	if err != nil {
		return nil, err
	}
	inj := faults.New(cfg.Seed, cfg.Profile)
	inj.SetEnabled(false) // quiet during setup; the storm enables it
	reg.SetReadHook(inj.RegistryRead)
	defer reg.SetReadHook(nil)
	srv, rl, ts, err := serveRegistry(reg, 2*time.Millisecond, logf,
		serve.WithAdmission(chaosMaxInFlight, chaosMaxQueue, chaosQueueWait),
		serve.WithFaultInjector(inj),
		serve.WithWorkers(4),
	)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	reloadCtx, stopReload := context.WithCancel(context.Background())
	reloadDone := fanOut(1, func(int) { rl.Run(reloadCtx) })
	defer func() {
		stopReload()
		reloadDone()
	}()

	led := newLedger()
	errs := &firstErr{}
	cnt := &counters{versions: map[int]bool{1: true, 2: true}}

	// ---- Storm: enable faults, drive mixed traffic. ----
	inj.SetEnabled(true)
	logf("harness: storm start (seed=%d workers=%d ops=%d)", cfg.Seed, cfg.Workers, cfg.OpsPerWorker)

	// Mid-storm actors: a publisher pushing v2, and an admin goroutine
	// flapping pin(1)/unpin and running GC — reload churn under faults.
	adminStop := make(chan struct{})
	adminDone := fanOut(2, func(actor int) {
		if actor == 0 {
			time.Sleep(5 * time.Millisecond)
			if _, err := reg.PublishPipeline(p2, registry.Manifest{}); err != nil {
				errs.set(fmt.Errorf("publishing v2 mid-storm: %w", err))
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
		for {
			select {
			case <-adminStop:
				return
			default:
			}
			if err := reg.Pin(1); err != nil {
				errs.set(fmt.Errorf("pin(1) mid-storm: %w", err))
			}
			time.Sleep(3 * time.Millisecond)
			if err := reg.Unpin(); err != nil && !errors.Is(err, registry.ErrNotPinned) {
				errs.set(fmt.Errorf("unpin mid-storm: %w", err))
			}
			if _, err := reg.GC(2); err != nil {
				errs.set(fmt.Errorf("gc(2) mid-storm: %w", err))
			}
			time.Sleep(3 * time.Millisecond)
		}
	})

	fanOut(cfg.Workers, func(w int) {
		rng := workerRNG(cfg.Seed, w)
		client := serve.NewClient(ts.URL)
		client.Retry = &serve.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Seed:        parallel.Seed(cfg.Seed, 1000+w),
			// Small budget: the server's 1s Retry-After exceeds it,
			// so mid-storm sheds surface to the op instead of
			// stalling the storm — recovery proves retries work.
			Budget: 30 * time.Millisecond,
		}
		var err error
		if client.Breaker, err = serve.NewBreaker(8, 10*time.Millisecond); err != nil {
			errs.set(err)
			return
		}
		client.OnAttempt = led.hook("")
		for op := 0; op < cfg.OpsPerWorker; op++ {
			runOp(rng, client, recs, cnt, errs, oracle)
		}
	})()
	close(adminStop)
	adminDone()

	// ---- Storm over: clear faults, converge, saturate, recover. ----
	inj.SetEnabled(false)
	if err := reg.Unpin(); err != nil && !errors.Is(err, registry.ErrNotPinned) {
		return nil, err
	}
	if err := rl.Sync(); err != nil {
		return nil, fmt.Errorf("post-storm sync: %w", err)
	}
	if v := srv.ActiveVersion(); v != 2 {
		return nil, fmt.Errorf("post-storm active version %d, want 2", v)
	}
	logf("harness: saturation burst")
	if err := saturate(ts.Listener.Addr().String(), ts.URL, recs, led, cnt, oracle); err != nil {
		return nil, err
	}

	// Recovery: with faults cleared, a retrying client must reach 100%
	// success — the stack holds nothing over from the storm.
	logf("harness: recovery")
	recClient := serve.NewClient(ts.URL)
	recClient.Retry = &serve.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        parallel.Seed(cfg.Seed, 999),
		Budget:      5 * time.Second,
	}
	recClient.OnAttempt = led.hook("")
	recovered, err := recoverScores(recClient.Score, recs[:12], cnt.versions, oracle)
	if err != nil {
		return nil, err
	}

	// ---- Reconcile client-side tallies against /metrics. ----
	text, err := serve.NewClient(ts.URL).Metrics() // no OnAttempt: the ledger is frozen
	if err != nil {
		return nil, err
	}
	m := obs.ParseSamples(text)
	if err := reconcileMember("", led, m, m); err != nil {
		return nil, err
	}
	scoredOK := m[`tasq_score_jobs_total{outcome="ok"}`]
	if err := reconcileScored(scoredOK, led, cnt); err != nil {
		return nil, err
	}
	// Curve-cache accounting: every successfully scored job did exactly one
	// cache lookup, so lookups bound the ok count from above; only misses
	// insert and only inserts evict; and a storm of 30 recurring jobs must
	// actually hit.
	cacheHits := m[obs.MetricCurveCacheHits]
	cacheMisses := m[obs.MetricCurveCacheMisses]
	cacheEvictions := m[obs.MetricCurveCacheEvictions]
	if cacheHits+cacheMisses < scoredOK {
		return nil, fmt.Errorf("cache lookups %v (hits %v + misses %v) < scored-ok %v",
			cacheHits+cacheMisses, cacheHits, cacheMisses, scoredOK)
	}
	if cacheEvictions > cacheMisses {
		return nil, fmt.Errorf("cache evictions %v exceed misses %v", cacheEvictions, cacheMisses)
	}
	if cacheHits < 1 {
		return nil, errors.New("recurring-job storm never hit the curve cache")
	}

	// ---- Drain: new work is refused, probes stay truthful. ----
	srv.BeginDrain()
	drainClient := serve.NewClient(ts.URL)
	if _, err := drainClient.Score(&serve.ScoreRequest{Job: recs[0].Job}); !allowed(err, http.StatusServiceUnavailable) {
		return nil, fmt.Errorf("score while draining: %v, want 503", err)
	}
	if err := drainClient.Ready(); !allowed(err, http.StatusServiceUnavailable) {
		return nil, fmt.Errorf("readyz while draining: %v, want 503", err)
	}
	if err := drainClient.Health(); err != nil {
		return nil, fmt.Errorf("healthz while draining: %v", err)
	}

	// ---- Determinism: recorded firings must match the pure schedule. ----
	if err := inj.Verify(); err != nil {
		return nil, err
	}
	if err := errs.get(); err != nil {
		return nil, err
	}

	cnt.mu.Lock()
	defer cnt.mu.Unlock()
	res := &Result{
		Attempts:         led.count(func(attempt) bool { return true }),
		ByStatus:         led.statuses(""),
		BatchItemsOK:     cnt.itemsOK,
		BatchItemsFailed: cnt.itemsFailed,
		CircuitOpen:      cnt.circuitOpen,
		Recovered:        recovered,
		ActiveVersion:    srv.ActiveVersion(),
		FaultTrace:       faultTrace(cfg.Seed, cfg.Profile, faults.Sites()),
		FiredBySite:      inj.Stats(),
	}
	logf("harness: done — %d attempts, %d batch items ok, %d recovered", res.Attempts, res.BatchItemsOK, res.Recovered)
	return res, nil
}

// saturate proves overload is shed, not queued unboundedly. Every
// admission slot is first held by a score whose body is withheld — the
// gate admits before the handler reads — so nothing drains while a burst
// of batches arrives: the queue fills and the overflow must shed 429 with
// a Retry-After hint. Queued waiters still give up after chaosQueueWait (504),
// so a burst whose arrivals straggle past it is sent again. The burst is
// staged on open connections and released at once, and these requests
// bypass serve.Client, so the ledger is told about each by hand.
func saturate(addr, url string, recs []*jobrepo.Record, led *ledger, cnt *counters, oracle curveOracle) error {
	// Every connection is closed on the way out, answered or not: a handler
	// still waiting for its body would otherwise never let the server close.
	var opened []*rawPost
	defer func() {
		for _, p := range opened {
			p.conn.Close()
		}
	}()
	post := func(route string, body []byte, withhold int) (*rawPost, error) {
		p, err := startPost(addr, route, body, withhold)
		if err == nil {
			opened = append(opened, p)
		}
		return p, err
	}
	held := make([]*rawPost, chaosMaxInFlight)
	for i := range held {
		body, err := json.Marshal(&serve.ScoreRequest{Job: recs[i%len(recs)].Job})
		if err != nil {
			return err
		}
		if held[i], err = post("/v1/score", body, len(body)); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		text, err := serve.NewClient(url).Metrics()
		if err != nil {
			return err
		}
		if obs.ParseSamples(text)[obs.MetricAdmissionInFlight] == chaosMaxInFlight {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("saturation: withheld-body requests never held all %d slots", chaosMaxInFlight)
		}
	}

	shed := func() int64 {
		return led.count(func(a attempt) bool { return a.status == http.StatusTooManyRequests })
	}
	before := shed()
	body := []byte(`{"items":[{"job":null}]}`) // never admitted, so never read
	for round := 0; round < 10 && shed() == before; round++ {
		burst := make([]*rawPost, chaosMaxQueue+8)
		for i := range burst {
			var err error
			if burst[i], err = post("/v1/score/batch", body, len(body)+1); err != nil {
				return err
			}
		}
		for _, p := range burst {
			if err := p.send(); err != nil {
				return err
			}
		}
		for _, p := range burst {
			resp, _, err := p.answer()
			if err != nil {
				return fmt.Errorf("saturation batch: %w", err)
			}
			led.record("", "/v1/score/batch", resp.StatusCode, nil)
			switch {
			case resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "":
				return errors.New("429 shed without a Retry-After hint")
			case resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusGatewayTimeout:
				return fmt.Errorf("saturation batch: status %d while every slot was held, want 429 or 504", resp.StatusCode)
			}
		}
	}
	if shed() == before {
		return errors.New("saturation burst never produced a 429 shed")
	}

	for i, p := range held {
		if err := p.send(); err != nil {
			return err
		}
		resp, raw, err := p.answer()
		if err != nil {
			return fmt.Errorf("held score %d: %w", i, err)
		}
		led.record("", "/v1/score", resp.StatusCode, nil)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("held score %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var out serve.ScoreResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return fmt.Errorf("held score %d: %w", i, err)
		}
		if err := checkScore(&out, cnt.versions, oracle, recs[i%len(recs)].Job.ID); err != nil {
			return fmt.Errorf("held score %d: %w", i, err)
		}
	}
	return nil
}

// rawPost is a POST written to its own connection short of its last
// bytes. Withholding the body leaves the request admitted but unread, so
// it holds an admission slot; withholding the header's final newline too
// keeps the server from seeing the request until send.
type rawPost struct {
	conn net.Conn
	rest []byte
}

// rawPostDeadline bounds every read and write on a raw connection, so a
// server that never answers fails the phase instead of hanging the test.
const rawPostDeadline = 30 * time.Second

func startPost(addr, route string, body []byte, withhold int) (*rawPost, error) {
	conn, err := net.DialTimeout("tcp", addr, rawPostDeadline)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(rawPostDeadline)); err != nil {
		conn.Close()
		return nil, err
	}
	msg := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: harness\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		route, len(body), body)
	cut := len(msg) - withhold
	if _, err := conn.Write(msg[:cut]); err != nil {
		conn.Close()
		return nil, err
	}
	return &rawPost{conn: conn, rest: msg[cut:]}, nil
}

// send writes the withheld bytes.
func (p *rawPost) send() error {
	_, err := p.conn.Write(p.rest)
	return err
}

// answer reads the response and closes the connection.
func (p *rawPost) answer() (*http.Response, []byte, error) {
	defer p.conn.Close()
	resp, err := http.ReadResponse(bufio.NewReader(p.conn), nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// runOp executes one randomly chosen operation and asserts its outcome is
// in the allowed set. Gate sheds (429/504) and injected 500s are allowed
// on every scoring op; everything else is op-specific.
func runOp(rng *rand.Rand, client *serve.Client, recs []*jobrepo.Record, cnt *counters, errs *firstErr, oracle curveOracle) {
	job := func() *scopesim.Job { return recs[rng.Intn(len(recs))].Job }
	opRoll := rng.Intn(100)
	switch {
	case opRoll < 40: // single score, varied routing
		req := &serve.ScoreRequest{Job: job()}
		jobID := req.Job.ID
		wantOK := true   // a 200 is acceptable
		conflict := true // a 409 is acceptable (untrained/uncovered)
		bad := false     // a 400 is acceptable (client error)
		switch roll := rng.Intn(10); {
		case roll < 5:
			conflict = false // policy routing always finds a model
		case roll == 5:
			req.Model = "xgboost-pl"
			conflict = false
		case roll == 6:
			req.Model = "xgboost-ss"
			conflict = false
		case roll == 7:
			req.Model = "jockey" // a §6.3 simulator, not served → 400
			wantOK, conflict, bad = false, false, true
		case roll == 8:
			req.Model = "nn" // skipped in training → 409 conflict
			wantOK, bad = false, false
		default:
			if rng.Intn(2) == 0 {
				req.Model = "resnet50" // unknown model → 400
			} else {
				req.Job = nil // invalid request → 400
			}
			wantOK, conflict, bad = false, false, true
		}
		resp, err := client.Score(req)
		checkSingle(resp, err, wantOK, conflict, bad, cnt, errs, oracle, jobID)
	case opRoll < 60: // batch, mixed item validity
		req := &serve.BatchScoreRequest{}
		n := 2 + rng.Intn(3)
		expect := make([]string, n)
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			item := serve.ScoreRequest{Job: job()}
			ids[i] = item.Job.ID
			expect[i] = "ok"
			switch roll := rng.Intn(10); {
			case roll == 8:
				item.Job = nil // → item 400
				expect[i] = "bad"
			case roll == 9:
				item.Model = "gnn" // skipped in training → item 409
				expect[i] = "conflict"
			}
			req.Items = append(req.Items, item)
		}
		resp, err := client.ScoreBatch(req)
		switch {
		case err == nil:
			recordBatch(resp, cnt, errs, expect, oracle, ids)
		case errors.Is(err, serve.ErrCircuitOpen):
			cnt.mu.Lock()
			cnt.circuitOpen++
			cnt.mu.Unlock()
		case allowed(err, http.StatusTooManyRequests, http.StatusGatewayTimeout):
			// whole batch shed before execution — the retry-safe refusals
		default:
			errs.set(fmt.Errorf("batch op: unexpected outcome %v", err))
		}
	case opRoll < 70: // reads
		if rng.Intn(2) == 0 {
			if _, err := client.Metrics(); err != nil && !errors.Is(err, serve.ErrCircuitOpen) {
				errs.set(fmt.Errorf("metrics op: %v", err))
			}
		} else {
			resp, err := client.Models()
			switch {
			case err == nil:
				if resp.ModelVersion != 1 && resp.ModelVersion != 2 {
					errs.set(fmt.Errorf("models op: generation v%d, want 1 or 2", resp.ModelVersion))
				}
			case errors.Is(err, serve.ErrCircuitOpen):
				cnt.mu.Lock()
				cnt.circuitOpen++
				cnt.mu.Unlock()
			default:
				errs.set(fmt.Errorf("models op: %v", err))
			}
		}
	case opRoll < 78: // probes never shed and never break
		if err := client.Ready(); err != nil {
			errs.set(fmt.Errorf("readyz op: %v", err))
		}
	case opRoll < 88: // admin reload: ok, or a 500 from an injected
		// registry fault (the previous generation keeps serving either way)
		_, err := client.Reload()
		switch {
		case err == nil, errors.Is(err, serve.ErrCircuitOpen):
			if errors.Is(err, serve.ErrCircuitOpen) {
				cnt.mu.Lock()
				cnt.circuitOpen++
				cnt.mu.Unlock()
			}
		case allowed(err, http.StatusInternalServerError):
		default:
			errs.set(fmt.Errorf("reload op: unexpected outcome %v", err))
		}
	default: // single score with explicit what-if parameters
		req := &serve.ScoreRequest{
			Job:             job(),
			Threshold:       0.005 + rng.Float64()*0.05,
			CandidateTokens: []int{1 + rng.Intn(3), 8 + rng.Intn(8), 32 + rng.Intn(32), 128},
		}
		resp, err := client.Score(req)
		checkSingle(resp, err, true, false, false, cnt, errs, oracle, req.Job.ID)
	}
}

// checkSingle asserts a single-score outcome against its allowed set.
func checkSingle(resp *serve.ScoreResponse, err error, wantOK, conflict, bad bool, cnt *counters, errs *firstErr, oracle curveOracle, jobID string) {
	switch {
	case err == nil:
		if !wantOK {
			errs.set(errors.New("score op: unexpected 200 for a request that cannot succeed"))
			return
		}
		if err := checkScore(resp, cnt.versions, oracle, jobID); err != nil {
			errs.set(fmt.Errorf("score op: %w", err))
		}
	case errors.Is(err, serve.ErrCircuitOpen):
		cnt.mu.Lock()
		cnt.circuitOpen++
		cnt.mu.Unlock()
	default:
		// Injected 500s and gate sheds are always possible; 400/409 only
		// when the request earned them.
		codes := []int{http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusGatewayTimeout}
		if conflict {
			codes = append(codes, http.StatusConflict)
		}
		if bad {
			codes = append(codes, http.StatusBadRequest)
		}
		if !allowed(err, codes...) {
			errs.set(fmt.Errorf("score op: unexpected outcome %v (allowed %v)", err, codes))
		}
	}
}
