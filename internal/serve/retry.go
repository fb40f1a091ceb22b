package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"

	"tasq/internal/faults"
)

// Circuit-breaker defaults: open after five consecutive failures, probe
// again after one second.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
)

// ErrCircuitOpen is returned without sending a request while the client's
// circuit breaker is open.
var ErrCircuitOpen = errors.New("serve: circuit breaker open")

// RetryPolicy drives the client's retry loop: capped exponential backoff
// with deterministic jitter. The jitter stream is a pure function of
// (Seed, attempt) — the same SplitMix64 scheme as the fault injector — so
// a chaos run's client behaviour replays exactly under the same seed.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included); values < 1
	// mean one attempt.
	MaxAttempts int
	// BaseDelay seeds the backoff; attempt n waits about BaseDelay·2^n,
	// jittered into [d/2, d) and capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter stream.
	Seed int64
	// Budget caps the total time spent sleeping between attempts; once a
	// computed delay would exceed it, the loop stops and returns the last
	// error. A server Retry-After hint is honored only within the budget.
	Budget time.Duration
}

// backoffSite names the jitter stream in the shared decision-stream space.
const backoffSite = "client.backoff"

// Delay computes the pause after a failed attempt (0-based): exponential
// growth capped at MaxDelay, jittered into [d/2, d) so a fleet of clients
// with distinct seeds desynchronizes instead of retrying in lockstep, then
// raised to the server's Retry-After hint when that is larger.
func (p *RetryPolicy) Delay(attempt int, retryAfter time.Duration) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	jittered := time.Duration(d/2 + d/2*faults.Unit(p.Seed, backoffSite, int64(attempt)))
	if retryAfter > jittered {
		return retryAfter
	}
	return jittered
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every attempt until the cooldown passes.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome closes
	// or re-opens the circuit.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// Breaker is a consecutive-failure circuit breaker: threshold failures in
// a row open it, a cooldown later a single half-open probe decides whether
// to close it again. It stops a client from hammering a service that is
// failing outright — distinct from 429 shedding, which the server already
// rate-controls and therefore never trips the breaker.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable in tests

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a closed breaker that opens after threshold (≥ 1)
// consecutive failures and probes again after cooldown (> 0).
func NewBreaker(threshold int, cooldown time.Duration) (*Breaker, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("serve: breaker threshold %d must be at least 1", threshold)
	}
	if cooldown <= 0 {
		return nil, fmt.Errorf("serve: breaker cooldown %v must be positive", cooldown)
	}
	return newBreaker(threshold, cooldown), nil
}

// newBreaker is NewBreaker for arguments known to be valid.
func newBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether an attempt may proceed, transitioning open →
// half-open once the cooldown has passed. In half-open, only the single
// probe is admitted.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds an attempt outcome back. Closed: failures count up to the
// trip threshold, a success resets them. Half-open: the probe's outcome
// closes or re-opens the circuit. Open: late results from requests
// launched before the trip are ignored. Besides the client's own retry
// loop, the ClusterClient's health probe records here: it hits /readyz
// outside the breaker (retryNone bypasses it, so a probe can reach an
// open-circuited member) and reports the verdict, which is what closes
// the circuit again on half-open probe success.
func (b *Breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	case BreakerOpen:
		// ignore
	case BreakerHalfOpen:
		b.probing = false
		b.failures = 0
		if ok {
			b.state = BreakerClosed
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	}
}

// State returns the breaker's position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// retryKind classifies an endpoint's retry safety.
type retryKind int

const (
	// retryNone: liveness/readiness probes — callers poll these
	// themselves, a stale answer is worse than an error.
	retryNone retryKind = iota
	// retryIdempotent: pure reads and idempotent operations (metrics,
	// model listing, scoring — a pure function of the request — and
	// registry sync). Safe to retry on any transient failure, including
	// transport errors and 500s.
	retryIdempotent
	// retryAtomic: batch scoring and telemetry. Retried only when the
	// call was refused: it provably ran none of its items. Never
	// blind-retried on other transport errors or 500s, where items may
	// already have run.
	retryAtomic
)

// refused reports whether a failed call provably ran no work, so it is
// safe to send again, here or to another member: the breaker
// short-circuited it, the connection was refused, or the service answered
// 429, 503 or 504 — the only statuses tasqd's admission, drain and
// partition gates send, before any handler runs. A proxy's 502 proves
// nothing about its upstream. The client's atomic retry and the
// balancer's batch failover both ask this one predicate.
func refused(err error) bool {
	if errors.Is(err, ErrCircuitOpen) || errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryable reports whether this failure is worth another attempt under
// the endpoint's retry kind: a refused call always is; an idempotent one
// also on any transport error, 500 or 502. Context cancellation is always
// terminal — the caller gave up, not the server — and 400/404/409/…
// cannot succeed on a retry of the same request.
func retryable(kind retryKind, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if refused(err) {
		return true
	}
	if kind != retryIdempotent {
		return false
	}
	var se *StatusError
	if !errors.As(err, &se) { // transport-level failure, response never arrived
		return true
	}
	return se.Code == http.StatusInternalServerError || se.Code == http.StatusBadGateway
}

// breakerOutcome classifies an attempt for the circuit breaker: transport
// failures and 5xx responses count against it; any other response proves
// the service is alive — including 429, which is the server managing load,
// not failing.
func breakerOutcome(se *StatusError, err error) (ok bool) {
	if err == nil {
		return true
	}
	if se == nil {
		return false
	}
	return se.Code < http.StatusInternalServerError
}

// do issues a request with retry, budget, and circuit-breaker handling
// around doOnce. Every Client method funnels through here with the retry
// kind its endpoint warrants.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, kind retryKind) ([]byte, error) {
	// Probes bypass the breaker entirely: a health check must report the
	// service's real state, and its outcome must not color the breaker's
	// view of the scoring path.
	useBreaker := c.Breaker != nil && kind != retryNone
	var slept time.Duration
	for attempt := 0; ; attempt++ {
		if useBreaker && !c.Breaker.Allow() {
			return nil, ErrCircuitOpen
		}
		body, err := c.doOnce(ctx, method, path, payload)

		var se *StatusError
		status := http.StatusOK
		if err != nil {
			if errors.As(err, &se) {
				status = se.Code
			} else {
				status = 0
			}
		}
		if c.OnAttempt != nil {
			c.OnAttempt(method, path, status, err)
		}
		if useBreaker && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			c.Breaker.record(breakerOutcome(se, err))
		}
		if err == nil {
			return body, nil
		}
		if c.Retry == nil || kind == retryNone ||
			attempt+1 >= c.Retry.MaxAttempts || !retryable(kind, err) {
			return nil, err
		}
		var retryAfter time.Duration
		if se != nil {
			retryAfter = se.RetryAfter
		}
		d := c.Retry.Delay(attempt, retryAfter)
		if c.Retry.Budget > 0 && slept+d > c.Retry.Budget {
			return nil, err
		}
		if serr := c.sleepFor(ctx, d); serr != nil {
			return nil, err
		}
		slept += d
	}
}

// sleepFor pauses between attempts, honoring context cancellation; tests
// inject c.sleep to record delays without waiting.
func (c *Client) sleepFor(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
