package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tasq/internal/faults"
	"tasq/internal/model"
	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
)

// blockingScorer parks every ScoreJob call until the test releases it, so
// admission states (executing, queued, shed) can be sequenced exactly.
type blockingScorer struct {
	started chan struct{}
	release chan struct{}
}

func newBlockingScorer() *blockingScorer {
	return &blockingScorer{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingScorer) ScoreJobModel(string, *scopesim.Job) (pcc.Curve, string, error) {
	b.started <- struct{}{}
	<-b.release
	return pcc.Curve{A: -0.5, B: 100}, "fake", nil
}

func (b *blockingScorer) ModelInfos() []model.Info { return nil }

// gateForTest builds a bare gate over a fresh metrics registry.
func gateForTest(limit, queue int, wait time.Duration) (*gate, *obs.Registry) {
	reg := obs.NewRegistry()
	return newGate(limit, queue, wait, reg), reg
}

// TestGateFIFO sequences admissions white-box: with one slot taken, three
// queued waiters must be granted strictly in arrival order as releases
// come in, the fourth arrival is shed 429, and the final release returns
// the slot (gauges back to zero).
func TestGateFIFO(t *testing.T) {
	g, _ := gateForTest(1, 3, time.Minute)

	release, w, shed := g.tryAdmit()
	if release == nil || w != nil || shed != nil {
		t.Fatalf("first admit: release=%v w=%v shed=%+v", release == nil, w, shed)
	}

	var waiters []*waiter
	for i := 0; i < 3; i++ {
		r2, w2, shed2 := g.tryAdmit()
		if r2 != nil || w2 == nil || shed2 != nil {
			t.Fatalf("queued admit %d: release=%v w=%v shed=%+v", i, r2 == nil, w2, shed2)
		}
		waiters = append(waiters, w2)
	}
	if _, _, shed4 := g.tryAdmit(); shed4 == nil || shed4.status != http.StatusTooManyRequests || shed4.reason != "queue_full" {
		t.Fatalf("over-queue admit: %+v, want 429 queue_full", shed4)
	}
	if g.depth.Value() != 3 {
		t.Fatalf("queue depth gauge %d, want 3", g.depth.Value())
	}

	// Each release must grant exactly the oldest waiter.
	granted := func(w *waiter) bool {
		select {
		case <-w.ch:
			return true
		default:
			return false
		}
	}
	rel := release
	for i := range waiters {
		rel()
		if !granted(waiters[i]) {
			t.Fatalf("release %d did not grant waiter %d", i, i)
		}
		for _, later := range waiters[i+1:] {
			if granted(later) {
				t.Fatalf("release %d granted out of order", i)
			}
		}
		rel = g.release
	}
	rel()
	if g.inflight != 0 || len(g.queue) != 0 || g.slots.Value() != 0 || g.depth.Value() != 0 {
		t.Fatalf("after drain-down: inflight=%d queue=%d slots=%d depth=%d",
			g.inflight, len(g.queue), g.slots.Value(), g.depth.Value())
	}
}

// TestGateClientGone cancels a queued request's context: the waiter is
// withdrawn, statusClientGone is reported (nothing written on the wire),
// and the queue does not leak.
func TestGateClientGone(t *testing.T) {
	g, _ := gateForTest(1, 3, time.Minute)
	release, _, _ := g.tryAdmit()
	_, w, _ := g.tryAdmit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rel, shed := g.wait(ctx, w)
	if rel != nil || shed == nil || shed.status != statusClientGone || shed.reason != "client_gone" {
		t.Fatalf("canceled wait: rel=%v shed=%+v", rel == nil, shed)
	}
	if len(g.queue) != 0 {
		t.Fatalf("abandoned waiter left in queue (depth %d)", len(g.queue))
	}
	// The slot is still owned by the first request and returns cleanly.
	release()
	if g.inflight != 0 {
		t.Fatalf("inflight %d after release", g.inflight)
	}
}

// TestGateGrantBeatsTimeout pins the race resolution: when a grant lands
// before the abandoning waiter reacquires the lock, the request proceeds
// with the slot instead of being shed.
func TestGateGrantBeatsTimeout(t *testing.T) {
	g, _ := gateForTest(1, 3, time.Minute)
	release, _, _ := g.tryAdmit()
	_, w, _ := g.tryAdmit()
	release() // grants w before any timeout
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // even with a dead context, the granted slot wins
	rel, shed := g.wait(ctx, w)
	if rel == nil || shed != nil {
		t.Fatalf("granted waiter shed: %+v", shed)
	}
	rel()
	if g.inflight != 0 {
		t.Fatalf("inflight %d after release", g.inflight)
	}
}

// TestAdmissionQueueDeadline drives the 504 contract over HTTP: a request
// that outlives the queue wait is shed with 504 (not the 429 of a full
// queue) and a Retry-After hint, while the executing request completes
// normally after release.
func TestAdmissionQueueDeadline(t *testing.T) {
	sc := newBlockingScorer()
	srv, ts := fakeServer(t, &fakeScorer{}, WithAdmission(1, 4, 25*time.Millisecond))
	srv.setActive(sc, 0)
	client := NewClient(ts.URL)

	first := make(chan error, 1)
	go func() {
		_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("hold")})
		first <- err
	}()
	<-sc.started // the slot is occupied

	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"job":{"id":"q","requested_tokens":100,"stages":[{"id":0,"tasks":4,"task_seconds":2}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status %d, want 504", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	close(sc.release)
	if err := <-first; err != nil {
		t.Fatalf("blocked request failed after release: %v", err)
	}
	if err := srv.gate.checkIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionShed429 saturates a gate with no queue: concurrent
// requests beyond the limit get 429 with Retry-After, and the typed
// client error carries both.
func TestAdmissionShed429(t *testing.T) {
	sc := newBlockingScorer()
	srv, ts := fakeServer(t, &fakeScorer{}, WithAdmission(1, 0, 10*time.Millisecond))
	srv.setActive(sc, 0)
	client := NewClient(ts.URL)

	first := make(chan error, 1)
	go func() {
		_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("hold")})
		first <- err
	}()
	<-sc.started

	_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("shed")})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated score: %v, want 429", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("StatusError.RetryAfter = %v, want >= 1s", se.RetryAfter)
	}

	close(sc.release)
	if err := <-first; err != nil {
		t.Fatalf("blocked request failed after release: %v", err)
	}

	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, obs.MetricShedTotal+`{reason="queue_full"} 1`) {
		t.Fatalf("shed counter missing from metrics:\n%s", metrics)
	}
}

// TestBeginDrainFinishesQueued is the SIGTERM contract: after BeginDrain,
// new scoring work is shed with 503 while the executing and queued
// requests run to completion.
func TestBeginDrainFinishesQueued(t *testing.T) {
	sc := newBlockingScorer()
	srv, ts := fakeServer(t, &fakeScorer{}, WithAdmission(1, 4, time.Minute))
	srv.setActive(sc, 0)
	client := NewClient(ts.URL)

	results := make(chan error, 2)
	for _, id := range []string{"executing", "queued"} {
		id := id
		go func() {
			_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob(id)})
			results <- err
		}()
	}
	<-sc.started // one executing; wait until the other is queued
	waitForQueueDepth(t, srv, 1)

	srv.BeginDrain()

	// New work is refused with 503 draining…
	_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("late")})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain score: %v, want 503", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("post-drain message %q", se.Message)
	}
	// …and /readyz flipped, but the probe endpoints still answer.
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("health during drain: %v", err)
	}
	if err := client.Ready(context.Background()); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("ready during drain: %v, want 503", err)
	}

	// Both admitted requests finish once the scorer unblocks.
	close(sc.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed during drain: %v", err)
		}
	}
	if err := srv.gate.checkIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestShedReadsBodyBeforeRefusing pins that a shed reaches a client that
// is still writing its body on a Connection: close request. Answering and
// closing on unread bytes would reset the connection, and the client would
// see a broken pipe instead of its 503.
func TestShedReadsBodyBeforeRefusing(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{})
	srv.BeginDrain()
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	half := strings.Repeat(" ", 64<<10)
	fmt.Fprintf(conn, "POST /v1/score/batch HTTP/1.1\r\nHost: tasq\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		2*len(half), half)
	time.Sleep(50 * time.Millisecond) // the refusal is written, if it does not wait
	if _, err := io.WriteString(conn, half); err != nil {
		t.Fatalf("writing the rest of the body: %v", err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if !strings.HasPrefix(string(reply), "HTTP/1.1 503") {
		t.Fatalf("reply %.40q, want a 503", reply)
	}
}

// TestGateConcurrentSoak hammers a small gate from many goroutines with a
// fast scorer: every response is a well-formed 200/429/504, and the gate
// ends idle — no leaked slots or queue entries.
func TestGateConcurrentSoak(t *testing.T) {
	srv, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}},
		WithAdmission(2, 2, 50*time.Millisecond))
	client := NewClient(ts.URL)

	const workers, per = 8, 20
	counts := make([]map[int]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		counts[w] = map[int]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("soak")})
				status := http.StatusOK
				if err != nil {
					var se *StatusError
					if !errors.As(err, &se) {
						t.Errorf("worker %d: transport error %v", w, err)
						return
					}
					status = se.Code
				}
				counts[w][status]++
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, m := range counts {
		for status, n := range m {
			switch status {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
				total += n
			default:
				t.Fatalf("unexpected status %d under saturation", status)
			}
		}
	}
	if total != workers*per {
		t.Fatalf("accounted %d responses, want %d", total, workers*per)
	}
	if err := srv.gate.checkIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestGatedShedsAreInstrumented pins that sheds flow through the per-route
// HTTP metrics (the gate sits inside obs.Instrument).
func TestGatedShedsAreInstrumented(t *testing.T) {
	sc := newBlockingScorer()
	srv, ts := fakeServer(t, &fakeScorer{}, WithAdmission(1, 0, 10*time.Millisecond))
	srv.setActive(sc, 0)
	client := NewClient(ts.URL)

	done := make(chan struct{})
	go func() {
		client.Score(context.Background(), &ScoreRequest{Job: validJob("hold")})
		close(done)
	}()
	<-sc.started
	client.Score(context.Background(), &ScoreRequest{Job: validJob("shed")}) // 429
	close(sc.release)
	<-done

	metrics, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `tasq_http_requests_total{code="4xx",route="/v1/score"} 1`) {
		t.Fatalf("shed not counted in HTTP metrics:\n%s", metrics)
	}
}

// TestWithFaultInjectorSingle pins the injector thread-through: a rate-1
// error profile turns every single score into a 500 and every batch item
// into a per-item 500, and disabling the injector restores service.
func TestWithFaultInjectorSingle(t *testing.T) {
	inj := faults.New(1, faults.Profile{ErrorRate: 1, BatchItemRate: 1})
	_, ts := fakeServer(t, &fakeScorer{curve: pcc.Curve{A: -0.5, B: 100}}, WithFaultInjector(inj))
	client := NewClient(ts.URL)

	var se *StatusError
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("j")}); !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("injected score: %v, want 500", err)
	}
	resp, err := client.ScoreBatch(context.Background(), &BatchScoreRequest{Items: []ScoreRequest{{Job: validJob("b")}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 1 || resp.Results[0].Status != http.StatusInternalServerError {
		t.Fatalf("injected batch: %+v", resp)
	}

	inj.SetEnabled(false)
	if _, err := client.Score(context.Background(), &ScoreRequest{Job: validJob("j2")}); err != nil {
		t.Fatalf("score after disabling injector: %v", err)
	}
	if err := inj.Verify(); err != nil {
		t.Fatal(err)
	}
}

// waitForQueueDepth polls the gate until the queue holds want requests.
func waitForQueueDepth(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.gate.mu.Lock()
		depth := len(srv.gate.queue)
		srv.gate.mu.Unlock()
		if depth == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d", want)
}
