package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasq/internal/obs"
	"tasq/internal/registry"
	"tasq/internal/serve"
)

// Replica is one in-process tasqd instance in a fleet: its own Server,
// Reloader and listener over the shared filesystem registry, plus the
// chaos controls the fleet suite drives — drain-based kill, restart as a
// fresh incarnation, and a network-partition gate. Every control is
// deterministic: a kill drains in-flight work before the listener closes
// (no response is ever counted by the server but lost by the client), a
// partition refuses with a counted 503 instead of dropping bytes, and
// registry adoption happens only on explicit Sync (the reloader's poll
// loop is never started), so a seeded schedule replays event for event.
type Replica struct {
	id   string
	reg  *registry.Registry
	opts []serve.Option
	logf func(string, ...any)

	// partitioned gates the listener outside the instrumented mux, so
	// refusals are counted here, not in the server's HTTP metrics.
	partitioned atomic.Bool

	mu          sync.Mutex
	srv         *serve.Server
	rl          *serve.Reloader
	ts          *httptest.Server
	alive       bool
	incarnation int
	// acc accumulates cumulative samples (counters, histograms) across
	// dead incarnations; gauges die with their process.
	acc map[string]float64
	// partRefused counts partition 503s by route, across incarnations.
	partRefused map[string]int64
}

// partitionedBody is the 503 body the partition gate serves; the fleet
// suite classifies partition refusals by this marker.
const partitionedBody = "cluster: partitioned"

// newReplica opens the replica's own registry handle on the shared dir —
// each member reads the registry the way a separate process would — and
// boots the first incarnation.
func newReplica(id, dir string, logf func(string, ...any), opts []serve.Option) (*Replica, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		id:          id,
		reg:         reg,
		opts:        opts,
		logf:        logf,
		acc:         make(map[string]float64),
		partRefused: make(map[string]int64),
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	return r, nil
}

// start boots an incarnation: unloaded server, reloader, one explicit
// Sync to adopt the registry state, then the listener.
func (r *Replica) start() error {
	srv, err := serve.NewUnloadedServer(r.opts...)
	if err != nil {
		return err
	}
	// The poll interval is effectively infinite: Run is never called, so
	// the replica adopts registry changes only on explicit Sync — the
	// determinism the chaos schedule relies on.
	rl, err := serve.NewReloader(r.reg, srv, time.Hour, r.logf)
	if err != nil {
		return err
	}
	if err := rl.Sync(); err != nil {
		return err
	}
	ts := httptest.NewServer(r.gate(srv.Handler()))

	r.mu.Lock()
	r.srv, r.rl, r.ts = srv, rl, ts
	r.alive = true
	r.incarnation++
	r.mu.Unlock()
	return nil
}

// gate wraps an incarnation's handler with the partition check. Sitting
// in front of the instrumented mux, a partition refusal never reaches the
// server's metrics — PartitionRefusals carries those counts instead, so
// reconciliation still balances to the request.
func (r *Replica) gate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r.partitioned.Load() {
			r.mu.Lock()
			r.partRefused[req.URL.Path]++
			r.mu.Unlock()
			// Read the body first, as the admission gate does: closing on
			// unread bytes would reset the connection and lose the 503.
			_, _ = io.Copy(io.Discard, req.Body)
			w.Header().Set("Retry-After", "1")
			http.Error(w, partitionedBody, http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, req)
	})
}

// ID returns the replica's fleet-wide name.
func (r *Replica) ID() string { return r.id }

// URL returns the current incarnation's base URL; "" when down. A
// restart listens on a fresh port, so callers re-point their client via
// ClusterClient.SetMemberClient, exactly as a rescheduled pod gets a new
// address.
func (r *Replica) URL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive {
		return ""
	}
	return r.ts.URL
}

// Alive reports whether an incarnation is serving.
func (r *Replica) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive
}

// Partitioned reports whether the partition gate is refusing traffic.
func (r *Replica) Partitioned() bool { return r.partitioned.Load() }

// Incarnation returns how many times this replica has booted.
func (r *Replica) Incarnation() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.incarnation
}

// Server exposes the current incarnation's Server; nil when down.
func (r *Replica) Server() *serve.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive {
		return nil
	}
	return r.srv
}

// Sync runs one explicit registry reconciliation on the live
// incarnation; an error when the replica is down. Implements the wave's
// Syncer contract.
func (r *Replica) Sync() error {
	r.mu.Lock()
	rl, alive := r.rl, r.alive
	r.mu.Unlock()
	if !alive {
		return fmt.Errorf("cluster: replica %s is down", r.id)
	}
	return rl.Sync()
}

// ActiveVersion returns the serving model generation; 0 when down.
func (r *Replica) ActiveVersion() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive {
		return 0
	}
	return r.srv.ActiveVersion()
}

// ShadowVersion returns the shadow generation; 0 when down or none.
func (r *Replica) ShadowVersion() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive {
		return 0
	}
	return r.srv.ShadowVersion()
}

// Partition flips the partition gate. Partitioning a dead replica is an
// error — there is no listener to gate.
func (r *Replica) Partition(on bool) error {
	if !r.Alive() {
		return fmt.Errorf("cluster: partitioning dead replica %s", r.id)
	}
	r.partitioned.Store(on)
	return nil
}

// Kill takes the incarnation down gracefully: drain (readyz flips, new
// scoring work sheds 503) → listener close, which blocks until every
// in-flight request has its response on the wire → cumulative metrics
// folded into the cross-incarnation accumulator. The drain-first order is
// what makes reconciliation exact: a response is either delivered and
// counted on both sides, or refused and counted on both sides — never
// half-counted.
func (r *Replica) Kill() error {
	r.mu.Lock()
	if !r.alive {
		r.mu.Unlock()
		return fmt.Errorf("cluster: replica %s already down", r.id)
	}
	srv, ts := r.srv, r.ts
	r.alive = false // stop handing out URL/Server while the drain runs
	r.mu.Unlock()

	srv.BeginDrain()
	ts.Close()
	exp, err := scrape(srv)
	if err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range cumulativeSamples(exp) {
		r.acc[k] += v
	}
	r.srv, r.rl, r.ts = nil, nil, nil
	r.partitioned.Store(false)
	return nil
}

// Restart boots a fresh incarnation after a Kill: new server, new
// reloader, new listener on a new port, partition gate clear. The new
// incarnation adopts whatever the registry says right now — including a
// promotion wave that rolled past while this replica was down.
func (r *Replica) Restart() error {
	r.mu.Lock()
	if r.alive {
		r.mu.Unlock()
		return fmt.Errorf("cluster: replica %s already running", r.id)
	}
	r.mu.Unlock()
	return r.start()
}

// MetricsNow returns the live incarnation's samples ("name{labels}" →
// value, counters and gauges alike); an error when the replica is down.
// Gauge assertions belong here — a gauge is a statement about the current
// process, and only the current incarnation has one.
func (r *Replica) MetricsNow() (map[string]float64, error) {
	r.mu.Lock()
	srv, alive := r.srv, r.alive
	r.mu.Unlock()
	if !alive {
		return nil, fmt.Errorf("cluster: replica %s is down", r.id)
	}
	exp, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	return obs.ParseSamples(exp), nil
}

// MetricsTotal returns cumulative samples (counters, histograms) summed
// across every incarnation this replica has had, dead ones included —
// the replica's side of the fleet reconciliation ledger. Gauges are
// excluded: they reset with the process and summing them is meaningless.
func (r *Replica) MetricsTotal() (map[string]float64, error) {
	r.mu.Lock()
	srv, alive := r.srv, r.alive
	out := make(map[string]float64, len(r.acc))
	for k, v := range r.acc {
		out[k] = v
	}
	r.mu.Unlock()
	if alive {
		exp, err := scrape(srv)
		if err != nil {
			return nil, err
		}
		for k, v := range cumulativeSamples(exp) {
			out[k] += v
		}
	}
	return out, nil
}

// PartitionRefusals returns a copy of the per-route partition 503
// counts, cumulative across incarnations.
func (r *Replica) PartitionRefusals() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.partRefused))
	for k, v := range r.partRefused {
		out[k] = v
	}
	return out
}

// scrape renders a server's metrics registry in-process — no HTTP hop,
// so it works mid-drain and after the listener is gone.
func scrape(srv *serve.Server) (string, error) {
	var b strings.Builder
	if _, err := srv.Registry().WriteTo(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// cumulativeSamples parses an exposition keeping only samples of
// cumulative families — counters and histograms — using the # TYPE lines
// to drop gauges, whose values must not be summed across incarnations.
func cumulativeSamples(text string) map[string]float64 {
	gauges := map[string]struct{}{}
	for _, line := range strings.Split(text, "\n") {
		var name, kind string
		if n, _ := fmt.Sscanf(line, "# TYPE %s %s", &name, &kind); n == 2 && kind == "gauge" {
			gauges[name] = struct{}{}
		}
	}
	out := obs.ParseSamples(text)
	for k := range out {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if _, ok := gauges[name]; ok {
			delete(out, k)
		}
	}
	return out
}

// Fleet is a set of replicas over one shared registry directory —
// in-process stand-ins for N tasqd processes behind a ClusterClient.
type Fleet struct {
	replicas []*Replica
}

// NewFleet boots n replicas ("r0" … "rN-1"), each with its own registry
// handle on dir and its own serving stack built from opts. logf
// (optional) receives each replica's reload log lines prefixed with its
// ID.
func NewFleet(dir string, n int, logf func(string, ...any), opts ...serve.Option) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: fleet of %d replicas", n)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := &Fleet{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		rlogf := func(format string, args ...any) {
			logf("["+id+"] "+format, args...)
		}
		r, err := newReplica(id, dir, rlogf, opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	return f, nil
}

// Size returns the replica count, dead or alive.
func (f *Fleet) Size() int { return len(f.replicas) }

// Replica returns the i-th replica.
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// Replicas returns the replicas in ID order.
func (f *Fleet) Replicas() []*Replica {
	return append([]*Replica(nil), f.replicas...)
}

// ByID finds a replica by name; nil if unknown.
func (f *Fleet) ByID(id string) *Replica {
	for _, r := range f.replicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// SyncAll runs one registry reconciliation on every live replica,
// returning the first error.
func (f *Fleet) SyncAll() error {
	for _, r := range f.replicas {
		if !r.Alive() {
			continue
		}
		if err := r.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains and kills every live replica.
func (f *Fleet) Close() {
	for _, r := range f.replicas {
		if r != nil && r.Alive() {
			_ = r.Kill()
		}
	}
}
