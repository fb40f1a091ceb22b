package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakePicker is a deterministic MemberPicker: the owner of a key is
// members[KeyHash-like(key) % len] over the sorted member list, and the
// sequence proceeds in that order. Tests use it to control routing
// without importing internal/cluster (which imports this package).
type fakePicker struct {
	mu      sync.Mutex
	members []string
}

func (p *fakePicker) Add(m string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.members {
		if e == m {
			return
		}
	}
	p.members = append(p.members, m)
	// Keep deterministic order regardless of add/remove history.
	for i := 1; i < len(p.members); i++ {
		for j := i; j > 0 && p.members[j] < p.members[j-1]; j-- {
			p.members[j], p.members[j-1] = p.members[j-1], p.members[j]
		}
	}
}

func (p *fakePicker) Remove(m string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.members[:0]
	for _, e := range p.members {
		if e != m {
			kept = append(kept, e)
		}
	}
	p.members = kept
}

func (p *fakePicker) Sequence(key []byte, n int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.members) == 0 {
		return nil
	}
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	if n <= 0 || n > len(p.members) {
		n = len(p.members)
	}
	start := int(h % uint64(len(p.members)))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.members[(start+i)%len(p.members)])
	}
	return out
}

// clusterFixture boots n replicas of the same trained pipeline behind a
// ClusterClient with tight breakers (threshold 2, 10ms cooldown) so
// ejection tests run fast.
func clusterFixture(t *testing.T, n int) (*ClusterClient, []*httptest.Server, *fakePicker) {
	t.Helper()
	p, _ := trainedCachePipeline(t)
	picker := &fakePicker{}
	cc := NewClusterClient(picker)
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		_, ts := pipelineServer(t, p)
		servers = append(servers, ts)
		c := NewClient(ts.URL)
		c.Breaker = newBreaker(2, 10*time.Millisecond)
		if err := cc.AddMember(memberID(i), c); err != nil {
			t.Fatal(err)
		}
	}
	return cc, servers, picker
}

func memberID(i int) string { return string(rune('a'+i)) + "-replica" }

// TestClusterRoutingAffinity pins cache-affine routing: the same job
// always lands on the same member, and with several jobs in play more
// than one member serves traffic.
func TestClusterRoutingAffinity(t *testing.T) {
	_, recs := trainedCachePipeline(t)
	cc, _, _ := clusterFixture(t, 3)

	// Same job, many calls: exactly one member serves them all.
	for i := 0; i < 6; i++ {
		if _, err := cc.Score(context.Background(), &ScoreRequest{Job: recs[0].Job}); err != nil {
			t.Fatal(err)
		}
	}
	st := cc.Stats()
	if len(st.Routed) != 1 {
		t.Fatalf("one job spread over %d members: %v", len(st.Routed), st.Routed)
	}
	if st.Failovers != 0 {
		t.Fatalf("healthy fleet recorded %d failovers", st.Failovers)
	}

	// Many jobs: the keyspace spreads.
	for _, rec := range recs {
		if _, err := cc.Score(context.Background(), &ScoreRequest{Job: rec.Job}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cc.Stats(); len(st.Routed) < 2 {
		t.Fatalf("30 jobs all routed to one member: %v", st.Routed)
	}
}

// TestClusterFailoverEjectionReadmission is the health-gate life cycle:
// a dead member's requests fail over to the next ring member; its
// breaker opens and ejects it; a probe against its restarted incarnation
// re-admits it.
func TestClusterFailoverEjectionReadmission(t *testing.T) {
	p, recs := trainedCachePipeline(t)
	cc, servers, _ := clusterFixture(t, 2)
	var events []string
	var evMu sync.Mutex
	cc.OnEvent = func(event, member string) {
		evMu.Lock()
		events = append(events, event+":"+member)
		evMu.Unlock()
	}

	// Find a job owned by member a-replica so killing it forces failover.
	victim := memberID(0)
	var job = recs[0].Job
	found := false
	for _, rec := range recs {
		if seq := cc.sequenceFor("", rec.Job); seq[0] == victim {
			job, found = rec.Job, true
			break
		}
	}
	if !found {
		t.Fatal("no job routed to the victim member")
	}

	servers[0].Close() // the process dies; connections now refuse

	// Scores keep succeeding via failover, and within a few requests the
	// victim's breaker (threshold 2) opens and ejects it.
	for i := 0; i < 4; i++ {
		if _, err := cc.Score(context.Background(), &ScoreRequest{Job: job}); err != nil {
			t.Fatalf("score %d during member death: %v", i, err)
		}
	}
	if got := cc.HealthyMembers(); !reflect.DeepEqual(got, []string{memberID(1)}) {
		t.Fatalf("healthy members after death = %v", got)
	}
	st := cc.Stats()
	if st.Ejections != 1 || st.Failovers == 0 {
		t.Fatalf("stats after death: %+v", st)
	}

	// While ejected, its requests go straight to the survivor — no errors.
	if _, err := cc.Score(context.Background(), &ScoreRequest{Job: job}); err != nil {
		t.Fatalf("score while ejected: %v", err)
	}

	// Restart: fresh server, same registry-of-one pipeline, new URL.
	_, ts2 := pipelineServer(t, p)
	c2 := NewClient(ts2.URL)
	c2.Breaker = cc.MemberClient(victim).Breaker // breaker state survives restart
	if err := cc.SetMemberClient(victim, c2); err != nil {
		t.Fatal(err)
	}
	// Probe until the breaker cooldown (10ms) lets the half-open probe
	// through and /readyz passes.
	deadline := time.Now().Add(2 * time.Second)
	for len(cc.HealthyMembers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("member never re-admitted")
		}
		cc.Probe(context.Background())
		time.Sleep(2 * time.Millisecond)
	}
	if st := cc.Stats(); st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Readmissions)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if !reflect.DeepEqual(events, []string{"eject:" + victim, "readmit:" + victim}) {
		t.Fatalf("events = %v", events)
	}
}

// TestClusterOverloadIsNotDown pins the backpressure contract: a member
// answering 429 stays in the ring and its 429 surfaces to the caller
// instead of spilling onto another shard.
func TestClusterOverloadIsNotDown(t *testing.T) {
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "serve: overloaded: queue full", http.StatusTooManyRequests)
	}))
	defer overloaded.Close()

	picker := &fakePicker{}
	cc := NewClusterClient(picker)
	if err := cc.AddMember("only", NewClient(overloaded.URL)); err != nil {
		t.Fatal(err)
	}
	_, err := cc.Score(context.Background(), &ScoreRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded member: %v, want 429", err)
	}
	if got := cc.HealthyMembers(); len(got) != 1 {
		t.Fatalf("429 ejected the member: healthy = %v", got)
	}
}

// TestClusterBatchScatterGather pins the scatter-gather contract: items
// come back in input order with the envelope counts intact, equal to
// what a single server answers, and the sub-batches spread across
// members.
func TestClusterBatchScatterGather(t *testing.T) {
	p, recs := trainedCachePipeline(t)
	cc, _, _ := clusterFixture(t, 3)
	_, soloTS := pipelineServer(t, p)
	solo := NewClient(soloTS.URL)

	req := &BatchScoreRequest{}
	for i := 0; i < 12; i++ {
		item := ScoreRequest{Job: recs[i%len(recs)].Job}
		if i == 5 {
			item.Job = nil // item-level 400
		}
		if i == 9 {
			item.Model = "nn" // skipped in training: item-level 409
		}
		req.Items = append(req.Items, item)
	}
	got, err := cc.ScoreBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.ScoreBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Succeeded != want.Succeeded || got.Failed != want.Failed {
		t.Fatalf("envelope %d/%d, single server says %d/%d", got.Succeeded, got.Failed, want.Succeeded, want.Failed)
	}
	if len(got.Results) != len(req.Items) {
		t.Fatalf("%d results for %d items", len(got.Results), len(req.Items))
	}
	for i, r := range got.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Status != want.Results[i].Status {
			t.Fatalf("item %d status %d, single server says %d", i, r.Status, want.Results[i].Status)
		}
		if r.Status == http.StatusOK && !reflect.DeepEqual(r.Response, want.Results[i].Response) {
			t.Fatalf("item %d response differs from single server", i)
		}
	}
	if st := cc.Stats(); len(st.Routed) < 2 {
		t.Fatalf("batch never spread: %v", st.Routed)
	}
}

// TestClusterNoMembers: an empty (or fully ejected) balancer answers
// ErrNoMembers rather than hanging or panicking.
func TestClusterNoMembers(t *testing.T) {
	cc := NewClusterClient(&fakePicker{})
	if _, err := cc.Score(context.Background(), &ScoreRequest{}); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("Score on empty cluster: %v", err)
	}
	if _, err := cc.ScoreBatch(context.Background(), &BatchScoreRequest{Items: []ScoreRequest{{}}}); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("ScoreBatch on empty cluster: %v", err)
	}
	if got := cc.Probe(context.Background()); got != nil {
		t.Fatalf("Probe on empty cluster readmitted %v", got)
	}
}

// TestClusterMemberAdmin covers the membership API edges: duplicate add,
// unknown SetMemberClient, remove, nil clients, default breakers.
func TestClusterMemberAdmin(t *testing.T) {
	cc := NewClusterClient(&fakePicker{})
	c := NewClient("http://localhost:0")
	if err := cc.AddMember("m0", c); err != nil {
		t.Fatal(err)
	}
	if c.Breaker == nil {
		t.Fatal("AddMember left the client without a breaker")
	}
	if err := cc.AddMember("m0", NewClient("http://localhost:0")); err == nil {
		t.Fatal("duplicate AddMember accepted")
	}
	if err := cc.AddMember("m1", nil); err == nil {
		t.Fatal("nil client accepted")
	}
	if err := cc.SetMemberClient("ghost", NewClient("http://localhost:0")); err == nil {
		t.Fatal("SetMemberClient on unknown member accepted")
	}
	if err := cc.SetMemberClient("m0", nil); err == nil {
		t.Fatal("SetMemberClient with nil client accepted")
	}
	if got := cc.Members(); !reflect.DeepEqual(got, []string{"m0"}) {
		t.Fatalf("Members = %v", got)
	}
	cc.RemoveMember("m0")
	cc.RemoveMember("ghost") // no-op
	if got := cc.Members(); len(got) != 0 {
		t.Fatalf("Members after remove = %v", got)
	}
	if cc.MemberClient("m0") != nil {
		t.Fatal("MemberClient after remove")
	}
}

// TestMemberDownClassification pins the down-vs-overload split the
// balancer routes by.
func TestMemberDownClassification(t *testing.T) {
	cases := []struct {
		err  error
		down bool
	}{
		{nil, false},
		{ErrCircuitOpen, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&StatusError{Code: http.StatusServiceUnavailable}, true},
		{&StatusError{Code: http.StatusBadGateway}, true},
		{&StatusError{Code: http.StatusTooManyRequests}, false},
		{&StatusError{Code: http.StatusGatewayTimeout}, false},
		{&StatusError{Code: http.StatusBadRequest}, false},
		{&StatusError{Code: http.StatusInternalServerError}, false},
		{errors.New("dial tcp: connection reset"), true},
	}
	for _, c := range cases {
		if got := memberDown(c.err); got != c.down {
			t.Errorf("memberDown(%v) = %v, want %v", c.err, got, c.down)
		}
	}
	// Batch failover is stricter: transport errors don't qualify unless
	// provably refused before send.
	if batchFailover(errors.New("connection reset mid-body")) {
		t.Error("batch failover on an ambiguous transport error")
	}
	if !batchFailover(syscall.ECONNREFUSED) {
		t.Error("no batch failover on a refused connection")
	}
	if !batchFailover(&StatusError{Code: http.StatusServiceUnavailable}) {
		t.Error("no batch failover on 503")
	}
	if batchFailover(&StatusError{Code: http.StatusTooManyRequests}) {
		t.Error("batch failover on 429 backpressure")
	}
}
