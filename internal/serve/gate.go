package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tasq/internal/obs"
)

// Admission-gate defaults: enough concurrency that the gate is invisible
// under normal load, with a bounded queue so memory stays flat when the
// service saturates — overload is shed, not buffered without limit.
const (
	DefaultMaxInFlight = 256
	DefaultMaxQueue    = 512
	DefaultQueueWait   = 2 * time.Second
	DefaultRetryAfter  = time.Second
)

// statusClientGone marks a request whose client disconnected while it was
// queued; nothing is written (nobody is listening), mirroring nginx's 499.
const statusClientGone = 499

// shedError says why admission refused a request and what to answer.
type shedError struct {
	status     int
	reason     string
	retryAfter time.Duration
}

// write answers the shed on the wire: 429/503/504 with a whole-second
// Retry-After hint (the header cannot express fractions, so sub-second
// configs round up to 1).
func (e *shedError) write(w http.ResponseWriter) {
	if e.status == statusClientGone {
		return
	}
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(e.retryAfter.Seconds()))))
	}
	http.Error(w, "serve: overloaded: "+e.reason, e.status)
}

// waiter is one request parked in the admission queue. Its channel is
// closed when a slot is granted; granted/gone resolve the race between a
// grant and the waiter giving up.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// gate is the bounded admission gate in front of the scoring endpoints:
// at most limit requests execute, at most maxQueue wait (FIFO), and no
// request waits longer than maxWait. Everything beyond is shed with an
// explicit status instead of piling onto the socket backlog — the
// overload answer a retrying client can act on.
type gate struct {
	limit      int
	maxQueue   int
	maxWait    time.Duration
	retryAfter time.Duration

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	draining bool

	depth         *obs.Gauge
	slots         *obs.Gauge
	shedQueueFull *obs.Counter
	shedDeadline  *obs.Counter
	shedDraining  *obs.Counter
	shedGone      *obs.Counter
}

// newGate builds a gate over settings the server has validated and
// registers its metrics.
func newGate(limit, maxQueue int, maxWait, retryAfter time.Duration, reg *obs.Registry) *gate {
	reg.SetHelp(obs.MetricShedTotal, "Scoring requests refused by the admission gate, by reason (queue_full, deadline, draining, client_gone).")
	reg.SetHelp(obs.MetricQueueDepth, "Scoring requests waiting in the admission queue.")
	reg.SetHelp(obs.MetricAdmissionInFlight, "Scoring requests holding an admission slot.")
	return &gate{
		limit:         limit,
		maxQueue:      maxQueue,
		maxWait:       maxWait,
		retryAfter:    retryAfter,
		depth:         reg.Gauge(obs.MetricQueueDepth),
		slots:         reg.Gauge(obs.MetricAdmissionInFlight),
		shedQueueFull: reg.Counter(obs.MetricShedTotal, "reason", "queue_full"),
		shedDeadline:  reg.Counter(obs.MetricShedTotal, "reason", "deadline"),
		shedDraining:  reg.Counter(obs.MetricShedTotal, "reason", "draining"),
		shedGone:      reg.Counter(obs.MetricShedTotal, "reason", "client_gone"),
	}
}

// tryAdmit is the synchronous half of admission: an immediate slot
// (release non-nil), a queued waiter (w non-nil, park in wait), or an
// immediate shed. Split from wait so tests can sequence admissions
// deterministically.
func (g *gate) tryAdmit() (release func(), w *waiter, shed *shedError) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		g.shedDraining.Inc()
		return nil, nil, &shedError{status: http.StatusServiceUnavailable, reason: "draining", retryAfter: g.retryAfter}
	}
	if g.inflight < g.limit {
		g.inflight++
		g.slots.Set(int64(g.inflight))
		return g.release, nil, nil
	}
	if len(g.queue) >= g.maxQueue {
		g.shedQueueFull.Inc()
		return nil, nil, &shedError{status: http.StatusTooManyRequests, reason: "queue_full", retryAfter: g.retryAfter}
	}
	w = &waiter{ch: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.depth.Set(int64(len(g.queue)))
	return nil, w, nil
}

// wait parks a queued waiter until a slot is granted, the queue deadline
// passes (504 — the request missed its window, unlike the immediate 429
// of a full queue), or the client goes away. A grant that races one of
// the timeouts wins: the slot was already transferred, so the request
// proceeds.
func (g *gate) wait(ctx context.Context, w *waiter) (func(), *shedError) {
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return g.release, nil
	case <-timer.C:
		if g.abandon(w) {
			return g.release, nil
		}
		g.shedDeadline.Inc()
		return nil, &shedError{status: http.StatusGatewayTimeout, reason: "deadline", retryAfter: g.retryAfter}
	case <-ctx.Done():
		if g.abandon(w) {
			return g.release, nil
		}
		g.shedGone.Inc()
		return nil, &shedError{status: statusClientGone, reason: "client_gone"}
	}
}

// admit combines tryAdmit and wait: the caller runs iff release is
// non-nil, and must call it exactly once when done.
func (g *gate) admit(ctx context.Context) (func(), *shedError) {
	release, w, shed := g.tryAdmit()
	if release != nil || shed != nil {
		return release, shed
	}
	return g.wait(ctx, w)
}

// release returns a slot: the oldest queued waiter inherits it (FIFO),
// otherwise the in-flight count drops.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.depth.Set(int64(len(g.queue)))
		w.granted = true
		close(w.ch)
		return
	}
	g.inflight--
	g.slots.Set(int64(g.inflight))
}

// abandon withdraws a waiter from the queue, reporting whether a grant
// got there first (in which case the waiter now owns a slot).
func (g *gate) abandon(w *waiter) (granted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return true
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	g.depth.Set(int64(len(g.queue)))
	return false
}

// checkIdle reports an error if the gate still holds slots or queued
// waiters — the no-leak assertion chaos and soak tests make after a storm.
func (g *gate) checkIdle() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight != 0 || len(g.queue) != 0 {
		return fmt.Errorf("serve: gate not idle: inflight=%d queued=%d", g.inflight, len(g.queue))
	}
	return nil
}

// drain flips the gate into graceful-drain: new arrivals are shed with
// 503 while everything already admitted or queued runs to completion —
// the SIGTERM contract.
func (g *gate) drain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

// gated wraps a scoring handler with the admission gate. It sits inside
// obs.Instrument, so shed responses are counted in the per-route HTTP
// metrics like any other outcome.
func (s *Server) gated(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, shed := s.gate.admit(r.Context())
		if shed != nil {
			// Read the body out before refusing; the refusal stands
			// whatever the read returns.
			discardBody(r)
			shed.write(w)
			return
		}
		defer release()
		h.ServeHTTP(w, r)
	})
}

// BeginDrain puts the server into graceful shutdown: /readyz flips
// not-ready so load balancers route elsewhere, and the admission gate
// sheds new scoring work with 503 while admitted and queued requests
// finish. In-flight work is never cut off; the process exits when the
// HTTP server's Shutdown completes.
func (s *Server) BeginDrain() {
	s.SetReady(false)
	s.gate.drain()
}
