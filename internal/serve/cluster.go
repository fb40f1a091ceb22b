package serve

// Cluster mode's client-side balancer. A fleet of tasqd replicas shares
// one filesystem registry; what makes it a cluster is this client: it
// consistent-hashes every scoring request on the same exact feature key
// the serving curve cache memoizes on, so a job's requests always land on
// the shard whose cache already holds its curve. Health gating rides the
// machinery that already exists — each member's circuit breaker ejects it
// from the ring when it opens, and a half-open /readyz probe success
// re-admits it. The ring lives behind the MemberPicker interface
// (internal/cluster.Ring implements it) so this package does not import
// the cluster package.

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"

	"tasq/internal/scopesim"
)

// ErrNoMembers is returned when every cluster member has been ejected
// (or none were added): there is nowhere to send the request.
var ErrNoMembers = errors.New("serve: no healthy cluster members")

// MemberPicker is the consistent-hash ring as the balancer sees it:
// membership mutations plus the failover preference order for a key.
// Sequence must return distinct healthy members in ring order starting at
// the key's owner; n ≤ 0 means all. internal/cluster.Ring satisfies it.
type MemberPicker interface {
	Add(member string)
	Remove(member string)
	Sequence(key []byte, n int) []string
}

// clusterMember pairs a member's client with its gate state. healthy
// mirrors ring membership: an unhealthy member is out of the ring and
// only a probe can bring it back.
type clusterMember struct {
	client  *Client
	healthy bool
}

// ClusterStats snapshots the balancer's routing counters.
type ClusterStats struct {
	// Routed counts successful responses by the member that served them.
	Routed map[string]int64
	// Failovers counts successes served by a member other than the key's
	// ring owner (the owner was down or ejected).
	Failovers int64
	// Ejections and Readmissions count health-gate transitions.
	Ejections    int64
	Readmissions int64
}

// ClusterClient fans requests out over a fleet of tasqd replicas with
// cache-affine routing, per-request failover, and breaker-driven health
// gating. Configure members before serving traffic; AddMember /
// RemoveMember / SetMemberClient are safe during traffic too.
type ClusterClient struct {
	picker MemberPicker

	// OnEvent, when set, observes health-gate transitions: ("eject", id)
	// when a member's breaker opens and it leaves the ring, ("readmit",
	// id) when a probe brings it back. Set before traffic starts.
	OnEvent func(event, member string)

	mu           sync.Mutex
	members      map[string]*clusterMember
	routed       map[string]int64
	failovers    int64
	ejections    int64
	readmissions int64
}

// NewClusterClient builds an empty balancer over a ring.
func NewClusterClient(picker MemberPicker) *ClusterClient {
	return &ClusterClient{
		picker:  picker,
		members: make(map[string]*clusterMember),
		routed:  make(map[string]int64),
	}
}

// AddMember registers a replica and admits it to the ring. The client
// gains a default breaker if it has none — ejection is breaker-driven,
// so a member without one could never be ejected.
func (cc *ClusterClient) AddMember(id string, c *Client) error {
	if c == nil {
		return errors.New("serve: cluster member without a client")
	}
	if c.Breaker == nil {
		c.Breaker = newBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.members[id]; ok {
		return errors.New("serve: duplicate cluster member " + id)
	}
	cc.members[id] = &clusterMember{client: c, healthy: true}
	cc.picker.Add(id)
	return nil
}

// RemoveMember drops a replica from the balancer and the ring.
func (cc *ClusterClient) RemoveMember(id string) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.members[id]; !ok {
		return
	}
	delete(cc.members, id)
	cc.picker.Remove(id)
}

// SetMemberClient swaps a member's client in place — a restarted replica
// comes back on a fresh URL with reset counters. Health state is kept:
// a dead member stays ejected until a probe passes, exactly like a
// still-booting process. The new client gains a default breaker if it
// has none.
func (cc *ClusterClient) SetMemberClient(id string, c *Client) error {
	if c == nil {
		return errors.New("serve: cluster member without a client")
	}
	if c.Breaker == nil {
		c.Breaker = newBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	m, ok := cc.members[id]
	if !ok {
		return errors.New("serve: unknown cluster member " + id)
	}
	m.client = c
	return nil
}

// MemberClient returns a member's client (nil if unknown) so tests and
// probes can reach one replica directly.
func (cc *ClusterClient) MemberClient(id string) *Client {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if m, ok := cc.members[id]; ok {
		return m.client
	}
	return nil
}

// Members lists every registered member sorted by id.
func (cc *ClusterClient) Members() []string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]string, 0, len(cc.members))
	for id := range cc.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// HealthyMembers lists the members currently in the ring, sorted.
func (cc *ClusterClient) HealthyMembers() []string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]string, 0, len(cc.members))
	for id, m := range cc.members {
		if m.healthy {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the routing counters.
func (cc *ClusterClient) Stats() ClusterStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	routed := make(map[string]int64, len(cc.routed))
	for id, n := range cc.routed {
		routed[id] = n
	}
	return ClusterStats{
		Routed:       routed,
		Failovers:    cc.failovers,
		Ejections:    cc.ejections,
		Readmissions: cc.readmissions,
	}
}

// RouteKey returns the routing key for a scoring request: the exact
// binary feature key the serving curve cache memoizes on, so the ring
// sends a job to the shard that already holds its curve. A nil job
// degrades to the model name exactly as given, not normalized: such
// requests 400 on every member, so where they land cannot matter.
func RouteKey(model string, job *scopesim.Job) []byte {
	kb := getKeyBuf()
	defer putKeyBuf(kb)
	appendRouteKey(kb, model, job)
	return append([]byte(nil), kb.b...)
}

func appendRouteKey(kb *keyBuf, model string, job *scopesim.Job) {
	if job != nil {
		appendScoreKey(kb, model, job)
		return
	}
	kb.b = append(kb.b, model...)
}

// sequenceFor computes the failover order for a request under the
// current ring membership.
func (cc *ClusterClient) sequenceFor(model string, job *scopesim.Job) []string {
	kb := getKeyBuf()
	defer putKeyBuf(kb)
	appendRouteKey(kb, model, job)
	return cc.picker.Sequence(kb.b, 0)
}

// memberDown classifies a failure as "this member cannot serve right
// now": a short-circuited breaker, a transport error (the process is
// dead or partitioned), or a 502/503 (draining, unloaded, or a fronting
// proxy with nothing behind it). Overload (429/504) is not down — the
// member is alive and managing load; spilling its backpressure onto
// another shard would just thrash that shard's cache. Context
// cancellation is the caller giving up, never the member's fault. Down is
// not refused: whether a failed call ran nothing is refused's question.
func memberDown(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCircuitOpen) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusServiceUnavailable || se.Code == http.StatusBadGateway
	}
	return true // transport error: response never arrived
}

// batchFailover reports whether a failed sub-batch should move to the
// next member rather than surface: only when the call was refused (so no
// item ran, the rule the client's atomic retry follows too) and the
// member itself is down. Overload refusals (429/504) surface to the
// caller — same reasoning as memberDown.
func batchFailover(err error) bool {
	return refused(err) && memberDown(err)
}

// observe runs after every attempt against a member: if its breaker has
// opened, the member leaves the ring until a probe re-admits it.
func (cc *ClusterClient) observe(id string) {
	cc.mu.Lock()
	m, ok := cc.members[id]
	eject := ok && m.healthy && m.client.Breaker != nil && m.client.Breaker.State() == BreakerOpen
	if eject {
		m.healthy = false
		cc.picker.Remove(id)
		cc.ejections++
	}
	ev := cc.OnEvent
	cc.mu.Unlock()
	if eject && ev != nil {
		ev("eject", id)
	}
}

// noteRouted records a success served by a member.
func (cc *ClusterClient) noteRouted(id string, failover bool) {
	cc.mu.Lock()
	cc.routed[id]++
	if failover {
		cc.failovers++
	}
	cc.mu.Unlock()
}

// Score routes a single scoring request to the key's owner, failing over
// clockwise around the ring past members that are down.
func (cc *ClusterClient) Score(ctx context.Context, req *ScoreRequest) (*ScoreResponse, error) {
	order := cc.sequenceFor(req.Model, req.Job)
	if len(order) == 0 {
		return nil, ErrNoMembers
	}
	var lastErr error
	for i, id := range order {
		c := cc.MemberClient(id)
		if c == nil {
			continue
		}
		resp, err := c.Score(ctx, req)
		cc.observe(id)
		if err == nil {
			cc.noteRouted(id, i > 0)
			return resp, nil
		}
		lastErr = err
		if !memberDown(err) {
			return nil, err // the request's own fault (400/409/500/429/…)
		}
	}
	return nil, lastErr
}

// ScoreBatch scatter-gathers a batch across the fleet by per-item key: it
// splits the batch into per-owner sub-batches, scores them concurrently
// on their shards (preserving cache affinity), and stitches the results
// back in input order. A sub-batch whose member is down
// fails over along its first item's ring sequence when the refusal
// provably preceded execution; any sub-batch that ultimately fails fails
// the whole call, matching the single-envelope contract.
func (cc *ClusterClient) ScoreBatch(ctx context.Context, req *BatchScoreRequest) (*BatchScoreResponse, error) {
	if len(req.Items) == 0 {
		// Let a member answer with its canonical 400 rather than invent one.
		order := cc.sequenceFor("", nil)
		if len(order) == 0 {
			return nil, ErrNoMembers
		}
		c := cc.MemberClient(order[0])
		if c == nil {
			return nil, ErrNoMembers
		}
		return c.ScoreBatch(ctx, req)
	}

	// Group item indices by owning member under the current membership.
	groups := make(map[string][]int)
	for i := range req.Items {
		it := &req.Items[i]
		seq := cc.sequenceFor(it.Model, it.Job)
		if len(seq) == 0 {
			return nil, ErrNoMembers
		}
		groups[seq[0]] = append(groups[seq[0]], i)
	}

	type groupResult struct {
		owner string
		idx   []int
		resp  *BatchScoreResponse
		err   error
	}
	results := make([]groupResult, 0, len(groups))
	for owner, idx := range groups {
		results = append(results, groupResult{owner: owner, idx: idx})
	}
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gr := &results[g]
			sub := &BatchScoreRequest{Items: make([]ScoreRequest, len(gr.idx))}
			for j, i := range gr.idx {
				sub.Items[j] = req.Items[i]
			}
			// Failover order: the group's ring sequence, starting at its
			// owner (derived from the first item's key).
			first := &req.Items[gr.idx[0]]
			for _, id := range cc.sequenceFor(first.Model, first.Job) {
				c := cc.MemberClient(id)
				if c == nil {
					continue
				}
				gr.resp, gr.err = c.ScoreBatch(ctx, sub)
				cc.observe(id)
				if gr.err == nil {
					cc.noteRouted(id, id != gr.owner)
					return
				}
				if !batchFailover(gr.err) {
					return
				}
			}
			if gr.resp == nil && gr.err == nil {
				gr.err = ErrNoMembers
			}
		}(g)
	}
	wg.Wait()

	out := &BatchScoreResponse{Results: make([]BatchItemResult, len(req.Items))}
	for g := range results {
		gr := &results[g]
		if gr.err != nil {
			return nil, gr.err
		}
		if len(gr.resp.Results) != len(gr.idx) {
			return nil, errors.New("serve: sub-batch result count mismatch")
		}
		for j, i := range gr.idx {
			item := gr.resp.Results[j]
			item.Index = i
			out.Results[i] = item
			if item.Status == http.StatusOK {
				out.Succeeded++
			} else {
				out.Failed++
			}
		}
	}
	return out, nil
}

// Probe attempts re-admission of every ejected member: once its
// breaker's cooldown lets the half-open probe through, a /readyz success
// closes the circuit and returns the member to the ring. Call it
// periodically (the fleet harness calls it between chaos steps). Returns
// the members re-admitted by this pass.
func (cc *ClusterClient) Probe(ctx context.Context) []string {
	cc.mu.Lock()
	var down []string
	for id, m := range cc.members {
		if !m.healthy {
			down = append(down, id)
		}
	}
	cc.mu.Unlock()
	sort.Strings(down)

	var readmitted []string
	for _, id := range down {
		c := cc.MemberClient(id)
		if c == nil {
			continue
		}
		b := c.Breaker
		if b != nil && !b.Allow() {
			continue // still cooling down, or another probe in flight
		}
		err := c.Ready(ctx)
		if b != nil {
			b.record(err == nil)
		}
		if err != nil {
			continue
		}
		cc.mu.Lock()
		m, ok := cc.members[id]
		admit := ok && !m.healthy
		if admit {
			m.healthy = true
			cc.picker.Add(id)
			cc.readmissions++
		}
		ev := cc.OnEvent
		cc.mu.Unlock()
		if admit {
			readmitted = append(readmitted, id)
			if ev != nil {
				ev("readmit", id)
			}
		}
	}
	return readmitted
}
