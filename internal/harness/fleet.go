package harness

// Fleet chaos: the cluster-mode counterpart of Run. Where Run storms one
// tasqd, RunFleet boots N in-process replicas over one shared registry
// behind a consistent-hash ClusterClient and drives a *seeded* schedule
// of replica kills, network partitions and restarts through the fleet —
// with a rolling model promotion wave mid-storm — asserting the
// scale-out invariants:
//
//   - no lost scores: every client-observed 200 was served and counted
//     by exactly one member, and the members' job counters sum to the
//     client's view (batch items stranded by a failed sibling group are
//     bounded, not guessed);
//   - exact counter reconciliation: per member, per route, per status
//     class, client attempt tallies equal the member's HTTP counters
//     summed across ALL its incarnations plus its counted partition
//     refusals — kills and restarts lose nothing and double-count
//     nothing, including the tasq_shed_total{reason} breakdown across a
//     drain-restart cycle;
//   - bounded error rate during churn: ring failover keeps operations
//     succeeding while members die and partition, and once the storm
//     clears the fleet recovers to 100% success on the promoted
//     generation;
//   - minimal key movement: ejecting and re-admitting members leaves the
//     final routing assignment identical to the initial one, and any
//     single member's removal moves only the keys it owned;
//   - event-for-event reproducibility: the same seed produces the
//     identical fleet event log (drain/kill/restart/partition/heal and
//     the promotion wave's canary/adopt sequence), verified against the
//     injector's pure schedule.
//
// Determinism model: the chaos schedule advances in steps. Each step
// first applies schedule mutations at a barrier (nothing in flight),
// then lets workers fire a fixed batch of operations, then probes for
// re-admission. Mutations are pure functions of (seed, step); worker
// interleaving stays nondeterministic, and the invariants hold under any
// interleaving — the *schedule* is what replays.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"tasq/internal/autopilot"
	"tasq/internal/cluster"
	"tasq/internal/faults"
	"tasq/internal/jobrepo"
	"tasq/internal/registry"
	"tasq/internal/serve"
)

// FleetConfig parameterizes one fleet chaos run.
type FleetConfig struct {
	// Seed fixes the kill/partition schedule, victim choices and worker
	// op mixes.
	Seed int64
	// Dir is the shared registry root (a fresh temp dir per run).
	Dir string
	// Workers × fleetOpsPerStep × Steps sizes the storm (defaults 6 × 8
	// × 18).
	Workers int
	Steps   int
	// Profile supplies the replica.kill / replica.partition rates.
	Profile faults.Profile
	// Logf receives progress lines (optional).
	Logf func(format string, args ...any)
}

// FleetEvent is one entry of the reproducible fleet event log.
type FleetEvent struct {
	Step   int
	Action string // drain|kill|restart|partition|heal|wave-*
	Member string // replica ID, or the version for wave decisions
}

// FleetResult is what a fleet chaos run observed.
type FleetResult struct {
	// Events is the deterministic fleet event log — equal across
	// same-seed runs.
	Events []FleetEvent
	// Ops counts storm operations; FailedOps those that failed with an
	// allowed status (FailedByKind breaks them down); Intended400
	// deliberate invalid requests answered 400.
	Ops          int64
	FailedOps    int64
	FailedByKind map[string]int64
	Intended400  int64
	// Attempts counts HTTP attempts across all member clients.
	Attempts int64
	// Kills and Partitions count schedule disruptions that fired;
	// StepsRun is the number of storm steps executed (one schedule draw
	// per site per step).
	Kills      int
	Partitions int
	StepsRun   int
	// Stats snapshots the balancer's routing/health counters.
	Stats serve.ClusterStats
	// Wave is the mid-storm promotion wave's outcome.
	Wave *cluster.WaveResult
	// Recovered counts post-storm scores that all succeeded on the
	// promoted generation.
	Recovered int
	// FaultTrace and FiredBySite mirror Result's determinism record for
	// the replica fault sites.
	FaultTrace  map[string]string
	FiredBySite map[string]faults.SiteStats
}

// allowedFleetFailure reports whether an op failure is within the chaos
// budget: balancer short-circuits, transport errors to killed members,
// and the refusal statuses (429/502/503/504). Anything else — a 500, an
// unexpected 4xx — is an invariant violation.
func allowedFleetFailure(err error) bool {
	if _, answered := statusOf(err); !answered {
		return true // a balancer short-circuit, or connection refused mid-churn
	}
	return allowed(err, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout)
}

// newFleetMemberClient builds the client the balancer uses for one
// member: no internal retries (ring failover is the retry), keep-alives
// off so every attempt is a fresh connection that either reaches a live
// listener or is cleanly refused — never a half-dead pooled connection —
// and a fast breaker so dead members eject within two attempts.
func newFleetMemberClient(url, id string, led *ledger) (*serve.Client, error) {
	b, err := serve.NewBreaker(2, 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	c := serve.NewClient(url)
	c.HTTP = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	c.Breaker = b
	c.OnAttempt = led.hook(id)
	return c, nil
}

// fleetSchedule is the per-replica disruption bookkeeping; all values
// are step numbers, -1 when not in that state.
type fleetSchedule struct {
	drainAt []int
	deadAt  []int
	partAt  []int
}

func newFleetSchedule(n int) *fleetSchedule {
	s := &fleetSchedule{drainAt: make([]int, n), deadAt: make([]int, n), partAt: make([]int, n)}
	for i := 0; i < n; i++ {
		s.drainAt[i], s.deadAt[i], s.partAt[i] = -1, -1, -1
	}
	return s
}

// idle lists the replicas the schedule says can serve right now: not
// draining, not dead, not partitioned.
func (s *fleetSchedule) idle() []int {
	var out []int
	for i := range s.deadAt {
		if s.drainAt[i] < 0 && s.deadAt[i] < 0 && s.partAt[i] < 0 {
			out = append(out, i)
		}
	}
	return out
}

// probeUntil drives re-admission probes until every listed member is
// back in the ring. Chaos steps can be shorter than the breaker
// cooldown, so this sleeps the cooldown off rather than spinning.
func probeUntil(cc *serve.ClusterClient, ctx context.Context, want []string) error {
	for try := 0; ; try++ {
		healthy := cc.HealthyMembers()
		missing := slices.IndexFunc(want, func(id string) bool { return !slices.Contains(healthy, id) })
		if missing < 0 {
			return nil
		}
		if try >= 200 {
			return fmt.Errorf("member %s not re-admitted after %d probes (healthy %v, want %v)",
				want[missing], try, healthy, want)
		}
		time.Sleep(2 * time.Millisecond)
		cc.Probe(ctx)
	}
}

// victim picks a deterministic victim among the (non-empty) eligible
// indices via the shared unit-stream construction.
func victim(seed int64, site string, step int, eligible []int) int {
	u := faults.Unit(seed, site, int64(step))
	i := int(u * float64(len(eligible)))
	if i >= len(eligible) {
		i = len(eligible) - 1
	}
	return eligible[i]
}

// The fleet storm's fixed shape: three replicas, eight operations per
// worker and step, a killed replica down for three steps, a partition
// lasting two, and at most 20% of operations failing (with an allowed
// status) during the storm.
const (
	fleetReplicas       = 3
	fleetOpsPerStep     = 8
	fleetKillDownSteps  = 3
	fleetPartitionSteps = 2
	fleetMaxFailRate    = 0.20
)

// RunFleet executes one fleet chaos scenario end to end. Any invariant
// violation surfaces as an error.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	orDefault(&cfg.Workers, 6)
	orDefault(&cfg.Steps, 18)
	logf := quiet(cfg.Logf)
	n := fleetReplicas

	// ---- Boot: shared registry, v1, fleet, balancer. ----
	p1, p2, recs, oracle, err := trainGenerations("", "xgboost-pl")
	if err != nil {
		return nil, err
	}
	reg, err := openRegistry(cfg.Dir, p1, "fleet v1")
	if err != nil {
		return nil, err
	}

	fleet, err := cluster.NewFleet(cfg.Dir, n, logf)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	led := newLedger()
	ring, err := cluster.NewRing(cluster.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	cc := serve.NewClusterClient(ring)
	for _, r := range fleet.Replicas() {
		c, err := newFleetMemberClient(r.URL(), r.ID(), led)
		if err != nil {
			return nil, err
		}
		if err := cc.AddMember(r.ID(), c); err != nil {
			return nil, err
		}
	}

	// Routing keys of the storm's job population, and the initial
	// assignment the final one must restore.
	keys := make([][]byte, len(recs))
	for i, rec := range recs {
		keys[i] = serve.RouteKey("", rec.Job)
	}
	baseAssign, err := ring.Assign(keys)
	if err != nil {
		return nil, err
	}

	inj := faults.New(cfg.Seed, cfg.Profile)
	res := &FleetResult{}
	errs := &firstErr{}
	cnt := &counters{versions: map[int]bool{1: true, 2: true}, failedKinds: map[string]int64{}}
	sched := newFleetSchedule(n)
	ctx := context.Background()

	event := func(step int, action, member string) {
		res.Events = append(res.Events, FleetEvent{Step: step, Action: action, Member: member})
		logf("fleet: step %d %s %s", step, action, member)
	}
	servable := func() []string {
		var ids []string
		for _, i := range sched.idle() {
			ids = append(ids, fleet.Replica(i).ID())
		}
		return ids
	}
	kill := func(i, step int) error {
		sched.deadAt[i] = step
		event(step, "kill", fleet.Replica(i).ID())
		return fleet.Replica(i).Kill()
	}
	restart := func(i, step int) error {
		r := fleet.Replica(i)
		if err := r.Restart(); err != nil {
			return err
		}
		sched.deadAt[i], sched.drainAt[i] = -1, -1
		event(step, "restart", r.ID())
		// The new incarnation listens on a fresh port; re-point the
		// balancer. Health state is preserved — a probe re-admits it.
		c, err := newFleetMemberClient(r.URL(), r.ID(), led)
		if err != nil {
			return err
		}
		return cc.SetMemberClient(r.ID(), c)
	}
	heal := func(i, step int) error {
		sched.partAt[i] = -1
		event(step, "heal", fleet.Replica(i).ID())
		return fleet.Replica(i).Partition(false)
	}

	// Per-worker deterministic op mixes, persistent across steps.
	rngs := make([]*rand.Rand, cfg.Workers)
	for w := range rngs {
		rngs[w] = workerRNG(cfg.Seed, 3000+w)
	}

	waveStep := cfg.Steps / 2
	logf("fleet: storm start (seed=%d replicas=%d steps=%d)", cfg.Seed, n, cfg.Steps)

	for step := 0; step < cfg.Steps; step++ {
		// -- (a) schedule mutations, at a barrier: nothing in flight. --
		for i := 0; i < n; i++ {
			if sched.deadAt[i] >= 0 && step-sched.deadAt[i] >= fleetKillDownSteps {
				if err := restart(i, step); err != nil {
					return nil, err
				}
			}
			if sched.partAt[i] >= 0 && step-sched.partAt[i] >= fleetPartitionSteps {
				if err := heal(i, step); err != nil {
					return nil, err
				}
			}
		}
		// Drains announced last step close now: one step of traffic hit
		// the draining member (503 draining, counted on both sides), so
		// the shed breakdown demonstrably survives the restart.
		for i := 0; i < n; i++ {
			if sched.drainAt[i] >= 0 && sched.deadAt[i] < 0 && step > sched.drainAt[i] {
				if err := kill(i, step); err != nil {
					return nil, err
				}
			}
		}
		// New disruptions — every step consumes exactly one draw per
		// site, so the decision stream is a pure function of the step —
		// and at least one replica always stays undisrupted.
		killFire := inj.ReplicaKill()
		partFire := inj.ReplicaPartition()
		if idle := sched.idle(); killFire && len(idle) > 1 {
			v := victim(cfg.Seed, "replica.victim.kill", step, idle)
			fleet.Replica(v).Server().BeginDrain()
			sched.drainAt[v] = step
			res.Kills++
			event(step, "drain", fleet.Replica(v).ID())
		}
		if idle := sched.idle(); partFire && len(idle) > 1 {
			v := victim(cfg.Seed, "replica.victim.partition", step, idle)
			if err := fleet.Replica(v).Partition(true); err != nil {
				return nil, err
			}
			sched.partAt[v] = step
			res.Partitions++
			event(step, "partition", fleet.Replica(v).ID())
		}

		// -- Mid-storm promotion wave: publish v2, canary it on the
		// first live replica, promote, wave through the fleet. --
		if step == waveStep {
			if _, err := reg.PublishPipeline(p2, registry.Manifest{Notes: "fleet v2 candidate"}); err != nil {
				return nil, err
			}
			var members []cluster.Syncer
			for _, r := range fleet.Replicas() { // alive first: the canary must be up
				if r.Alive() {
					members = append(members, r)
				}
			}
			for _, r := range fleet.Replicas() {
				if !r.Alive() {
					members = append(members, r)
				}
			}
			wave, err := cluster.RunWave(reg, members, 2,
				func(int) (float64, float64) { return 0.01, 0.10 }, // candidate clearly better
				func(int) float64 { return 0.01 },                  // and quiet under guard
				cluster.WaveConfig{
					Machine: fastWaveMachine(),
					OnEvent: func(ev, detail string) { event(step, "wave-"+ev, detail) },
				})
			if err != nil {
				return nil, fmt.Errorf("fleet: promotion wave: %w", err)
			}
			if wave.Outcome != registry.WaveStateComplete {
				return nil, fmt.Errorf("fleet: wave outcome %q, want complete", wave.Outcome)
			}
			res.Wave = wave
		}

		// -- (b) health convergence: every member the schedule says is
		// servable must be back in the ring before traffic flows, so
		// each step starts from the schedule-determined health baseline
		// (steps can be faster than the breaker cooldown; sleep it off).
		if err := probeUntil(cc, ctx, servable()); err != nil {
			return nil, fmt.Errorf("fleet: step %d: %w", step, err)
		}

		// -- (c) worker traffic. --
		fanOut(cfg.Workers, func(w int) {
			for op := 0; op < fleetOpsPerStep; op++ {
				runFleetOp(rngs[w], cc, recs, oracle, cnt, errs)
			}
		})()

		if err := errs.get(); err != nil {
			return nil, err
		}
	}

	// ---- Recovery: schedule cleared, fleet must converge to 100%. ----
	inj.SetEnabled(false)
	logf("fleet: recovery")
	for i := 0; i < n; i++ {
		if sched.drainAt[i] >= 0 && sched.deadAt[i] < 0 {
			// Draining but not yet closed: finish the kill first.
			if err := kill(i, cfg.Steps); err != nil {
				return nil, err
			}
		}
		if sched.deadAt[i] >= 0 {
			if err := restart(i, cfg.Steps); err != nil {
				return nil, err
			}
		}
		if sched.partAt[i] >= 0 {
			if err := heal(i, cfg.Steps); err != nil {
				return nil, err
			}
		}
	}
	if err := fleet.SyncAll(); err != nil {
		return nil, err
	}
	if err := probeUntil(cc, ctx, servable()); err != nil {
		return nil, fmt.Errorf("fleet: recovery: %w", err)
	}
	if got := len(cc.HealthyMembers()); got != n {
		return nil, fmt.Errorf("fleet: %d/%d members healthy after recovery", got, n)
	}
	for _, r := range fleet.Replicas() {
		if got := r.ActiveVersion(); got != 2 {
			return nil, fmt.Errorf("fleet: replica %s active v%d after recovery, want v2", r.ID(), got)
		}
		if got := r.ShadowVersion(); got != 0 {
			return nil, fmt.Errorf("fleet: replica %s still shadows v%d after recovery", r.ID(), got)
		}
	}
	// Every job must score on the promoted generation, routed by the
	// restored ring.
	if res.Recovered, err = recoverScores(cc.Score, recs, map[int]bool{2: true}, oracle); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	// ---- Minimal key movement. ----
	// Live ring: full membership restored ⇒ the assignment is the boot
	// assignment, exactly (assignment is a pure function of the member
	// set).
	finalAssign, err := ring.Assign(keys)
	if err != nil {
		return nil, err
	}
	for k, owner := range baseAssign {
		if finalAssign[k] != owner {
			return nil, fmt.Errorf("fleet: key %q moved %s -> %s across the storm despite restored membership",
				k, owner, finalAssign[k])
		}
	}
	// Pure post-pass: removing any single member moves only its own keys.
	scratch, err := cluster.NewRing(cluster.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	for _, r := range fleet.Replicas() {
		scratch.Add(r.ID())
	}
	for _, r := range fleet.Replicas() {
		scratch.Remove(r.ID())
		moved, err := scratch.Assign(keys)
		if err != nil {
			return nil, err
		}
		for k, owner := range moved {
			if baseAssign[k] != r.ID() && owner != baseAssign[k] {
				return nil, fmt.Errorf("fleet: removing %s moved key %q owned by %s", r.ID(), k, baseAssign[k])
			}
		}
		scratch.Add(r.ID())
	}

	// ---- Exact cross-member counter reconciliation. ----
	if err := reconcileFleet(fleet, led, cnt); err != nil {
		return nil, err
	}

	// ---- Error budget and determinism. ----
	cnt.mu.Lock()
	res.Ops, res.FailedOps, res.Intended400 = cnt.ops, cnt.failed, cnt.intended400
	res.FailedByKind = maps.Clone(cnt.failedKinds)
	cnt.mu.Unlock()
	if res.Ops > 0 {
		if rate := float64(res.FailedOps) / float64(res.Ops); rate > fleetMaxFailRate {
			return nil, fmt.Errorf("fleet: %d/%d ops failed (%.1f%%), budget %.1f%% — by kind: %v",
				res.FailedOps, res.Ops, 100*rate, 100*fleetMaxFailRate, res.FailedByKind)
		}
	}
	if err := inj.Verify(); err != nil {
		return nil, err
	}
	if err := errs.get(); err != nil {
		return nil, err
	}
	res.FaultTrace = faultTrace(cfg.Seed, cfg.Profile, []string{faults.SiteReplicaKill, faults.SiteReplicaPartition})
	res.FiredBySite = inj.Stats()
	res.StepsRun = cfg.Steps
	res.Stats = cc.Stats()
	res.Attempts = led.count(func(attempt) bool { return true })
	logf("fleet: done — %d ops (%d failed), %d kills, %d partitions, %d recovered",
		res.Ops, res.FailedOps, res.Kills, res.Partitions, res.Recovered)
	return res, nil
}

// fastWaveMachine is the promotion machine sized for a storm step: the
// decision still lands exactly at the Nth sample, just with a small N.
func fastWaveMachine() autopilot.MachineConfig {
	return autopilot.MachineConfig{
		PromoteMinN: 6, PromoteDelta: 0.02, GuardrailWindow: 6,
		GuardAlpha: 0.5, GuardMinSamples: 2,
	}
}

// runFleetOp executes one operation against the balancer and asserts the
// outcome is in the allowed set: a correct 200 (curve matching the
// labeled generation's oracle), the intended 400, or an allowed churn
// failure. Anything else fails the run.
func runFleetOp(rng *rand.Rand, cc *serve.ClusterClient, recs []*jobrepo.Record,
	oracle curveOracle, cnt *counters, errs *firstErr) {
	cnt.mu.Lock()
	cnt.ops++
	cnt.mu.Unlock()
	fail := func(err error, stranded int64) {
		kind := "transport"
		switch {
		case errors.Is(err, serve.ErrNoMembers):
			kind = "no-members"
		case errors.Is(err, serve.ErrCircuitOpen):
			kind = "circuit-open"
		default:
			if code, ok := statusOf(err); ok {
				kind = fmt.Sprintf("status-%d", code)
			}
		}
		cnt.mu.Lock()
		cnt.failed++
		cnt.failedKinds[kind]++
		cnt.strandedCap += stranded
		cnt.mu.Unlock()
	}
	single := func(model string) {
		rec := recs[rng.Intn(len(recs))]
		resp, err := cc.Score(&serve.ScoreRequest{Job: rec.Job, Model: model})
		if err != nil {
			if allowedFleetFailure(err) {
				fail(err, 0)
			} else {
				errs.set(fmt.Errorf("fleet single score %s: %w", rec.Job.ID, err))
			}
			return
		}
		if err := checkScore(resp, cnt.versions, oracle, rec.Job.ID); err != nil {
			errs.set(err)
		}
	}
	roll := rng.Intn(100)
	switch {
	case roll < 60:
		single("") // policy-routed model
	case roll < 72:
		single("xgboost-pl") // explicit model: a second routing-key population
	case roll < 88:
		// Batch of valid jobs: groups fan out per owner, so one envelope
		// exercises several members at once.
		k := 2 + rng.Intn(3)
		items := make([]serve.ScoreRequest, k)
		ids := make([]string, k)
		for i := range items {
			rec := recs[rng.Intn(len(recs))]
			items[i] = serve.ScoreRequest{Job: rec.Job}
			ids[i] = rec.Job.ID
		}
		resp, err := cc.ScoreBatch(&serve.BatchScoreRequest{Items: items})
		if err != nil {
			if allowedFleetFailure(err) {
				// A sibling group may have executed before this one
				// failed the envelope; its items are stranded, not lost.
				fail(err, int64(k))
			} else {
				errs.set(fmt.Errorf("fleet batch score: %w", err))
			}
			return
		}
		// No scoring fault fires in the fleet: every valid item scores.
		if resp.Failed != 0 || resp.Succeeded != k {
			errs.set(fmt.Errorf("fleet batch of %d valid jobs: %d ok, %d failed",
				k, resp.Succeeded, resp.Failed))
		}
		recordBatch(resp, cnt, errs, nil, oracle, ids)
	default:
		// Deliberate invalid request: a nil job must come back as a
		// crisp 400 even mid-churn, unless its whole failover chain is
		// down.
		_, err := cc.Score(&serve.ScoreRequest{})
		if code, ok := statusOf(err); ok && code == http.StatusBadRequest {
			cnt.mu.Lock()
			cnt.intended400++
			cnt.mu.Unlock()
			return
		}
		if err != nil && allowedFleetFailure(err) {
			fail(err, 0)
			return
		}
		errs.set(fmt.Errorf("fleet invalid score: want 400, got %v", err))
	}
}

// reconcileFleet balances every member's client attempts against its
// server-side counters summed across incarnations — a partitioned member
// refuses before its mux, so its refusals join its 5xx first — then
// checks the job counts fleet-wide.
func reconcileFleet(fleet *cluster.Fleet, led *ledger, cnt *counters) error {
	var okJobs, failedJobs, rejectedJobs float64
	for _, r := range fleet.Replicas() {
		total, err := r.MetricsTotal()
		if err != nil {
			return err
		}
		for route, n := range r.PartitionRefusals() {
			total[fmt.Sprintf("tasq_http_requests_total{code=%q,route=%q}", "5xx", route)] += float64(n)
		}
		// Quiesced gauges come from the live incarnation only.
		now, err := r.MetricsNow()
		if err != nil {
			return err
		}
		if err := reconcileMember(r.ID(), led, total, now); err != nil {
			return fmt.Errorf("fleet %w", err)
		}
		okJobs += total[`tasq_score_jobs_total{outcome="ok"}`]
		failedJobs += total[`tasq_score_jobs_total{outcome="failed"}`]
		rejectedJobs += total[`tasq_score_jobs_total{outcome="rejected"}`]
	}
	if err := reconcileScored(okJobs, led, cnt); err != nil {
		return fmt.Errorf("fleet %w", err)
	}
	if failedJobs != 0 {
		return fmt.Errorf("fleet reconcile: %v failed jobs with no injected scoring faults", failedJobs)
	}
	score4xx := led.count(func(a attempt) bool { return a.route == "/v1/score" && a.class() == "4xx" })
	if rejectedJobs != float64(score4xx) {
		return fmt.Errorf("fleet reconcile rejected jobs: members %v, client 4xx %v", rejectedJobs, score4xx)
	}
	return nil
}
