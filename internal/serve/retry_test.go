package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The policy the retry tests run under: four attempts with 50ms → 2s
// capped exponential backoff under a 10s total-sleep budget.
const (
	testRetryAttempts  = 4
	testRetryBaseDelay = 50 * time.Millisecond
	testRetryMaxDelay  = 2 * time.Second
)

func testRetryPolicy(seed int64) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: testRetryAttempts,
		BaseDelay:   testRetryBaseDelay,
		MaxDelay:    testRetryMaxDelay,
		Seed:        seed,
		Budget:      10 * time.Second,
	}
}

// TestRetryPolicyDelaySchedule pins the exact deterministic backoff
// schedule: no clocks, no randomness at run time — each (seed, attempt)
// maps to one golden delay inside [d/2, d) of the capped exponential, and
// the same seed reproduces it forever.
func TestRetryPolicyDelaySchedule(t *testing.T) {
	cases := []struct {
		seed    int64
		attempt int
		want    time.Duration
	}{
		{7, 0, 44024996},
		{7, 1, 94477818},
		{7, 2, 183825738},
		{7, 3, 366833810},
		{7, 4, 420525026},
		{7, 5, 1379637581},
		{7, 6, 1200085991}, // capped at MaxDelay: jitter within [1s, 2s)
		{8, 0, 36720019},
		{8, 1, 54934660},
		{8, 2, 119998695},
		{8, 3, 229819275},
		{8, 4, 696936005},
		{8, 5, 807434856},
		{8, 6, 1163837665},
	}
	for _, tc := range cases {
		p := testRetryPolicy(tc.seed)
		if got := p.Delay(tc.attempt, 0); got != tc.want {
			t.Errorf("seed %d attempt %d: delay %d, want %d", tc.seed, tc.attempt, got, tc.want)
		}
		// Envelope: jitter keeps the delay in [d/2, d) of the capped
		// exponential.
		d := testRetryBaseDelay
		for i := 0; i < tc.attempt && d < testRetryMaxDelay; i++ {
			d *= 2
		}
		if d > testRetryMaxDelay {
			d = testRetryMaxDelay
		}
		if got := p.Delay(tc.attempt, 0); got < d/2 || got >= d {
			t.Errorf("seed %d attempt %d: delay %v outside [%v, %v)", tc.seed, tc.attempt, got, d/2, d)
		}
	}
}

// TestRetryPolicyHonorsRetryAfter: a server hint larger than the jittered
// backoff wins; a smaller one is ignored.
func TestRetryPolicyHonorsRetryAfter(t *testing.T) {
	p := testRetryPolicy(7)
	if got := p.Delay(0, 3*time.Second); got != 3*time.Second {
		t.Fatalf("Delay(0, 3s) = %v, want the Retry-After hint", got)
	}
	if got := p.Delay(0, time.Nanosecond); got != 44024996 {
		t.Fatalf("Delay(0, 1ns) = %v, want the jittered backoff", got)
	}
}

// retryHarness is an httptest server that answers a scripted status
// sequence (the last entry repeats forever) and counts requests.
type retryHarness struct {
	ts       *httptest.Server
	requests atomic.Int64
}

func newRetryHarness(t *testing.T, retryAfter string, statuses ...int) *retryHarness {
	t.Helper()
	h := &retryHarness{}
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(h.requests.Add(1)) - 1
		if n >= len(statuses) {
			n = len(statuses) - 1
		}
		status := statuses[n]
		if status == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/v1/score/batch" {
				w.Write([]byte(`{"results":[{"index":0,"status":200,"response":{"model":"fake","curve":{"a":-0.5,"b":100},"optimal_tokens":1}}],"succeeded":1}`))
			} else {
				w.Write([]byte(`{"model":"fake","curve":{"a":-0.5,"b":100},"optimal_tokens":1}`))
			}
			return
		}
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "scripted failure", status)
	}))
	t.Cleanup(h.ts.Close)
	return h
}

// resilientClient builds a client with the default policy under a fixed
// seed, a recording fake sleep, and an attempt log.
func resilientClient(url string, seed int64) (*Client, *[]time.Duration, *[]int) {
	var sleeps []time.Duration
	var attempts []int
	c := NewClient(url)
	c.Retry = testRetryPolicy(seed)
	c.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	c.OnAttempt = func(method, path string, status int, err error) { attempts = append(attempts, status) }
	return c, &sleeps, &attempts
}

// TestClientRetriesUntilSuccess: 429, 429, 200 — the client retries with
// the exact deterministic schedule, honoring the whole-second Retry-After
// over the smaller jittered backoff, and succeeds.
func TestClientRetriesUntilSuccess(t *testing.T) {
	h := newRetryHarness(t, "1", http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusOK)
	c, sleeps, attempts := resilientClient(h.ts.URL, 7)

	resp, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "fake" {
		t.Fatalf("response %+v", resp)
	}
	if want := []int{429, 429, 200}; len(*attempts) != 3 || (*attempts)[0] != want[0] || (*attempts)[1] != want[1] || (*attempts)[2] != want[2] {
		t.Fatalf("attempt statuses %v, want %v", *attempts, want)
	}
	// Retry-After: 1s beats the 44ms/94ms jittered delays of seed 7.
	if want := []time.Duration{time.Second, time.Second}; len(*sleeps) != 2 || (*sleeps)[0] != want[0] || (*sleeps)[1] != want[1] {
		t.Fatalf("sleeps %v, want %v", *sleeps, want)
	}
}

// TestClientRetryBackoffSchedule: with no Retry-After the recorded sleeps
// are exactly the policy's golden schedule for the seed.
func TestClientRetryBackoffSchedule(t *testing.T) {
	h := newRetryHarness(t, "", http.StatusServiceUnavailable, http.StatusServiceUnavailable,
		http.StatusServiceUnavailable, http.StatusOK)
	c, sleeps, _ := resilientClient(h.ts.URL, 7)

	if _, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")}); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{44024996, 94477818, 183825738}
	if len(*sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", *sleeps, want)
	}
	for i := range want {
		if (*sleeps)[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, (*sleeps)[i], want[i])
		}
	}
}

// TestClientNoRetryOnClientErrors: 400 and 409 are the caller's problem —
// exactly one attempt, error surfaced as-is.
func TestClientNoRetryOnClientErrors(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusConflict, http.StatusNotFound} {
		h := newRetryHarness(t, "", status, http.StatusOK)
		c, sleeps, attempts := resilientClient(h.ts.URL, 7)
		_, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != status {
			t.Fatalf("status %d: got %v", status, err)
		}
		if refused(err) {
			t.Fatalf("status %d reported refused", status)
		}
		if len(*attempts) != 1 || len(*sleeps) != 0 {
			t.Fatalf("status %d: %d attempts, %d sleeps — must not retry", status, len(*attempts), len(*sleeps))
		}
	}
}

// TestClientRetryBudget stops retrying once the next delay would blow the
// budget, surfacing the last real error.
func TestClientRetryBudget(t *testing.T) {
	h := newRetryHarness(t, "", http.StatusServiceUnavailable)
	c, sleeps, attempts := resilientClient(h.ts.URL, 7)
	c.Retry.Budget = 100 * time.Millisecond // covers the 44ms first delay, not 44+94ms

	_, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want the final 503", err)
	}
	if len(*attempts) != 2 || len(*sleeps) != 1 {
		t.Fatalf("%d attempts / %d sleeps, want 2/1 under the budget", len(*attempts), len(*sleeps))
	}
}

// TestBatchRetrySafety: a refused batch (429/503/504, or a connection
// refused before anything was sent) is retried; a 500 or a transport
// failure after the body went out is not, because items may already have
// been scored.
func TestBatchRetrySafety(t *testing.T) {
	req := &BatchScoreRequest{Items: []ScoreRequest{{Job: validJob("b")}}}

	// Shed whole → safe to retry.
	h := newRetryHarness(t, "1", http.StatusTooManyRequests, http.StatusOK)
	c, _, attempts := resilientClient(h.ts.URL, 7)
	resp, err := c.ScoreBatch(context.Background(), req)
	if err != nil || resp.Succeeded != 1 {
		t.Fatalf("shed batch retry: %v %+v", err, resp)
	}
	if len(*attempts) != 2 {
		t.Fatalf("shed batch: %d attempts, want 2", len(*attempts))
	}

	// 500 → never blind-retried.
	h = newRetryHarness(t, "", http.StatusInternalServerError, http.StatusOK)
	c, _, attempts = resilientClient(h.ts.URL, 7)
	_, err = c.ScoreBatch(context.Background(), req)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("batch 500: %v", err)
	}
	if len(*attempts) != 1 {
		t.Fatalf("batch 500: %d attempts, want 1", len(*attempts))
	}

	// The connection drops after the server read the body → never
	// blind-retried either.
	dropper := newDroppingServer(t)
	c, _, attempts = resilientClient(dropper.ts.URL, 7)
	if _, err := c.ScoreBatch(context.Background(), req); err == nil {
		t.Fatal("batch against a dropping server succeeded")
	}
	if len(*attempts) != 1 || (*attempts)[0] != 0 || dropper.requests.Load() != 1 {
		t.Fatalf("dropped batch attempts %v, %d requests read; want one status-0 attempt, one request",
			*attempts, dropper.requests.Load())
	}

	// A refused connection sent nothing → retried up to MaxAttempts.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, _, attempts = resilientClient(dead.URL, 7)
	if _, err := c.ScoreBatch(context.Background(), req); err == nil {
		t.Fatal("batch against dead server succeeded")
	}
	if len(*attempts) != testRetryAttempts {
		t.Fatalf("refused batch attempts %v, want %d", *attempts, testRetryAttempts)
	}
	// Telemetry posts follow the same rule.
	c, _, attempts = resilientClient(dead.URL, 7)
	if _, err := c.Telemetry(context.Background(), &TelemetryRequest{}); err == nil {
		t.Fatal("telemetry against dead server succeeded")
	}
	if len(*attempts) != testRetryAttempts {
		t.Fatalf("refused telemetry attempts %v, want %d", *attempts, testRetryAttempts)
	}
}

// newDroppingServer answers every request by reading its whole body and
// then closing the connection without a response: the request went out,
// so whatever it asked for may have run.
func newDroppingServer(t *testing.T) *retryHarness {
	t.Helper()
	h := &retryHarness{}
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		h.requests.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(h.ts.Close)
	return h
}

// TestSingleScoreRetriesTransportErrors: scoring is idempotent, so a
// transport failure is retried up to MaxAttempts.
func TestSingleScoreRetriesTransportErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, sleeps, attempts := resilientClient(dead.URL, 7)
	if _, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")}); err == nil {
		t.Fatal("score against dead server succeeded")
	}
	if len(*attempts) != testRetryAttempts || len(*sleeps) != testRetryAttempts-1 {
		t.Fatalf("%d attempts / %d sleeps, want %d/%d", len(*attempts), len(*sleeps),
			testRetryAttempts, testRetryAttempts-1)
	}
	for i, status := range *attempts {
		if status != 0 {
			t.Fatalf("attempt %d status %d, want 0 (transport)", i, status)
		}
	}
}

// TestBreakerStateMachine drives closed → open → half-open → closed and
// the re-open path on a fake clock, pinning every transition.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b, err := NewBreaker(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b.now = func() time.Time { return now }

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	// A success between failures resets the consecutive count.
	b.record(false)
	b.record(true)
	b.record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after interleaved failures, want closed", b.State())
	}
	// Two consecutive failures trip it.
	b.record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	// Late results from pre-trip requests don't move an open breaker.
	b.record(true)
	if b.State() != BreakerOpen {
		t.Fatal("late success closed an open breaker")
	}

	// Cooldown elapses: exactly one probe goes through.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown passed but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v during probe, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted while probe in flight")
	}
	// Failed probe re-opens for a fresh cooldown.
	b.record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	// Successful probe closes; failure counting starts fresh.
	b.record(true)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
	b.record(false)
	if b.State() != BreakerClosed {
		t.Fatal("single failure after close tripped a threshold-2 breaker")
	}
}

// TestBreakerStateStrings covers the state labels used in logs.
func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" || BreakerHalfOpen.String() != "half-open" {
		t.Fatal("breaker state labels changed")
	}
}

// TestClientBreakerIntegration: consecutive 500s trip the client's
// breaker, further calls short-circuit with ErrCircuitOpen and no wire
// attempt; 429 shedding never trips it.
func TestClientBreakerIntegration(t *testing.T) {
	h := newRetryHarness(t, "", http.StatusInternalServerError)
	c, _, attempts := resilientClient(h.ts.URL, 7)
	c.Retry = nil // isolate the breaker from the retry loop
	c.Breaker = newBreaker(2, time.Hour)

	for i := 0; i < 2; i++ {
		if _, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")}); err == nil {
			t.Fatal("500 reported as success")
		}
	}
	if c.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after two 500s, want open", c.Breaker.State())
	}
	if _, err := c.Score(context.Background(), &ScoreRequest{Job: validJob("r")}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker call: %v, want ErrCircuitOpen", err)
	}
	if len(*attempts) != 2 {
		t.Fatalf("%d wire attempts, want 2 — the short-circuited call must not hit the network", len(*attempts))
	}
	if got := h.requests.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
	// Probes bypass the breaker: health must reach the wire and report
	// the service's real state even while scoring is short-circuited.
	if err := c.Health(context.Background()); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("health probe short-circuited by the breaker")
	}
	if got := h.requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests after the probe, want 3", got)
	}

	// 429 is load shedding, not failure: a threshold-1 breaker stays
	// closed through it.
	h2 := newRetryHarness(t, "1", http.StatusTooManyRequests)
	c2, _, _ := resilientClient(h2.ts.URL, 7)
	c2.Retry = nil
	c2.Breaker = newBreaker(1, time.Hour)
	if _, err := c2.Score(context.Background(), &ScoreRequest{Job: validJob("r")}); err == nil {
		t.Fatal("429 reported as success")
	}
	if c2.Breaker.State() != BreakerClosed {
		t.Fatalf("breaker %v after 429, want closed", c2.Breaker.State())
	}
}

// TestParseRetryAfter covers the header forms: delta-seconds, HTTP-date,
// and garbage.
func TestParseRetryAfter(t *testing.T) {
	if got := parseRetryAfter("2"); got != 2*time.Second {
		t.Fatalf("delta-seconds: %v", got)
	}
	if got := parseRetryAfter(""); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := parseRetryAfter("-3"); got != 0 {
		t.Fatalf("negative: %v", got)
	}
	if got := parseRetryAfter("soon"); got != 0 {
		t.Fatalf("garbage: %v", got)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 10*time.Second {
		t.Fatalf("http-date: %v", got)
	}
	past := time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Fatalf("past http-date: %v", got)
	}
}

// TestRefusalDecision holds the client's batch retry and the balancer's
// batch failover to the one rule of which failed call provably ran no
// work: breaker open, connection refused, 429, 503 or 504. The balancer
// moves a refused batch to the next member only when its owner is also
// down (breaker open, refused, 503); overload (429, 504) surfaces. Each
// row scripts the first round trip of a one-item batch.
func TestRefusalDecision(t *testing.T) {
	refusedDial := func(*http.Request) (*http.Response, error) {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	}
	resetAfterBody := func(r *http.Request) (*http.Response, error) {
		_, _ = io.Copy(io.Discard, r.Body)
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}
	}
	status := func(code int) func(*http.Request) (*http.Response, error) {
		return func(r *http.Request) (*http.Response, error) {
			_, _ = io.Copy(io.Discard, r.Body)
			return &http.Response{StatusCode: code, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("scripted")), Request: r}, nil
		}
	}
	rows := []struct {
		name            string
		breakerOpen     bool
		fail            func(*http.Request) (*http.Response, error)
		retry, failover bool
	}{
		{"breaker open", true, nil, true, true},
		{"connection refused", false, refusedDial, true, true},
		{"reset after the body was sent", false, resetAfterBody, false, false},
		{"429", false, status(http.StatusTooManyRequests), true, false},
		{"500", false, status(http.StatusInternalServerError), false, false},
		{"502", false, status(http.StatusBadGateway), false, false},
		{"503", false, status(http.StatusServiceUnavailable), true, true},
		{"504", false, status(http.StatusGatewayTimeout), true, false},
	}
	batch := &BatchScoreRequest{Items: []ScoreRequest{{Job: validJob("r")}}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			member := func(fail func(*http.Request) (*http.Response, error)) (*Client, *scriptedTransport) {
				tr := &scriptedTransport{fail: fail}
				c := NewClient("http://member.invalid")
				c.HTTP = &http.Client{Transport: tr}
				if row.breakerOpen {
					c.Breaker = newBreaker(1, time.Hour)
					c.Breaker.record(false)
				}
				return c, tr
			}

			// The client's batch retry, two attempts allowed.
			c, tr := member(row.fail)
			c.Retry = testRetryPolicy(7)
			c.Retry.MaxAttempts = 2
			c.sleep = func(time.Duration) {}
			_, err := c.ScoreBatch(context.Background(), batch)
			if row.breakerOpen {
				// Nothing is sent while the breaker is open; the
				// refusal itself is what the decision reads.
				if !errors.Is(err, ErrCircuitOpen) || tr.trips.Load() != 0 {
					t.Fatalf("client: %v after %d round trips, want ErrCircuitOpen after none", err, tr.trips.Load())
				}
				if !retryable(retryAtomic, err) {
					t.Fatal("client: an open breaker is not retryable")
				}
			} else {
				want := int64(1)
				if row.retry {
					want = 2
				}
				if got := tr.trips.Load(); got != want {
					t.Fatalf("client: %d round trips (last error %v), want %d", got, err, want)
				}
			}

			// The balancer's batch failover: the owner fails as scripted,
			// the next member answers.
			cc := NewClusterClient(&fakePicker{})
			for _, id := range []string{"a", "b"} {
				if err := cc.AddMember(id, NewClient("http://placeholder.invalid")); err != nil {
					t.Fatal(err)
				}
			}
			order := cc.sequenceFor("", batch.Items[0].Job)
			owner, _ := member(row.fail)
			nextTr := &scriptedTransport{}
			next := NewClient("http://next.invalid")
			next.HTTP = &http.Client{Transport: nextTr}
			if err := cc.SetMemberClient(order[0], owner); err != nil {
				t.Fatal(err)
			}
			if err := cc.SetMemberClient(order[1], next); err != nil {
				t.Fatal(err)
			}
			_, err = cc.ScoreBatch(context.Background(), batch)
			failedOver := err == nil && cc.Stats().Failovers == 1
			if failedOver != row.failover {
				t.Fatalf("balancer: error %v, %d failovers, %d round trips on the next member; want failover %v",
					err, cc.Stats().Failovers, nextTr.trips.Load(), row.failover)
			}
			if !row.failover && nextTr.trips.Load() != 0 {
				t.Fatalf("balancer: the next member saw %d round trips, want none", nextTr.trips.Load())
			}
		})
	}
}

// scriptedTransport fails its first round trip with fail (when set) and
// answers every other one with a one-item batch success.
type scriptedTransport struct {
	fail  func(*http.Request) (*http.Response, error)
	trips atomic.Int64
}

func (s *scriptedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	if s.trips.Add(1) == 1 && s.fail != nil {
		return s.fail(r)
	}
	_, _ = io.Copy(io.Discard, r.Body)
	body := `{"results":[{"index":0,"status":200,"response":{"model":"fake","curve":{"a":-0.5,"b":100},"optimal_tokens":1}}],"succeeded":1}`
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body)), Request: r}, nil
}
