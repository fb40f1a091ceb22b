package harness

// The soak kit: what the chaos, fleet, autopilot and plan scenarios share.
// Boot (quick-trained pipelines, the registry, an in-process tasqd), the
// seeded worker fan-out, the attempt ledger every client reports to, the
// per-member /metrics reconciliation, the batch-envelope checks and the
// fault-trace builder live here; each scenario file keeps only its own
// schedule and invariants.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"tasq/internal/faults"
	"tasq/internal/jobrepo"
	"tasq/internal/obs"
	"tasq/internal/parallel"
	"tasq/internal/pcc"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// orDefault replaces a zero (or negative) config value with its default.
func orDefault(v *int, def int) {
	if *v <= 0 {
		*v = def
	}
}

// quiet turns a nil progress logger into one that drops everything.
func quiet(logf func(string, ...any)) func(string, ...any) {
	if logf == nil {
		return func(string, ...any) {}
	}
	return logf
}

// workerRNG is the op-mix stream of worker (or plan) i under seed.
func workerRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(parallel.Seed(seed, i)))
}

// fanOut starts worker(w) for every w in [0, n) on its own goroutine and
// returns the function that waits for all of them. Workers report
// invariant violations through a firstErr rather than a return value, so
// a failing worker never stops its siblings' traffic.
func fanOut(n int, worker func(w int)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := range n {
		go func() {
			defer wg.Done()
			worker(w)
		}()
	}
	return wg.Wait
}

// quickTrainConfig is the small, registry-publishable training setup
// every soak serves: 8-tree XGBoost, NN and GNN skipped so that naming
// them takes the 409 conflict path.
func quickTrainConfig(seed int64) trainer.Config {
	cfg := trainer.DefaultConfig(seed)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	return cfg
}

// quickTrain ingests the first n jobs of the seeded test workload and
// trains quickTrainConfig on them. The generator comes back too, so a
// soak can keep drawing (and drifting) the same workload.
func quickTrain(seed int64, n int) (*trainer.Pipeline, []*jobrepo.Record, *workload.Generator, error) {
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	if err := repo.Ingest(g.Workload(n), &scopesim.Executor{}); err != nil {
		return nil, nil, nil, err
	}
	p, err := trainer.Train(repo.All(), quickTrainConfig(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	return p, repo.All(), g, nil
}

// curveOracle maps (generation, served model name, job ID) to the exact
// curve that generation's own predictor computes for the job. During the
// storm the admin goroutine flaps the registry pin while workers score,
// so 200s arrive labeled v1 and v2 interleaved; every one must carry its
// labeled generation's curve bit-for-bit. A memoized curve surviving a
// hot reload — a v2-labeled response carrying v1's curve — fails the
// equality here, because the two generations train from different seeds.
type curveOracle map[oracleKey]pcc.Curve

type oracleKey struct {
	version    int
	model, job string
}

// trainGenerations trains the two generations the chaos and fleet storms
// serve — v1 and v2 from different seeds over 30 jobs — and precomputes
// the oracle by scoring every record through both with each model routing
// a storm request can use (the empty name follows the policy chain,
// exactly like a request with no model field). Curves survive the JSON
// round trip exactly — encoding/json emits the shortest representation
// that parses back to the identical float64 — so the harness asserts
// equality, not tolerance.
func trainGenerations(models ...string) (p1, p2 *trainer.Pipeline, recs []*jobrepo.Record, oracle curveOracle, err error) {
	if p1, recs, _, err = quickTrain(51, 30); err != nil {
		return nil, nil, nil, nil, err
	}
	if p2, _, _, err = quickTrain(53, 30); err != nil {
		return nil, nil, nil, nil, err
	}
	oracle = curveOracle{}
	for v, p := range map[int]*trainer.Pipeline{1: p1, 2: p2} {
		for _, name := range models {
			for _, rec := range recs {
				curve, served, err := p.ScoreJobModel(name, rec.Job)
				if err != nil {
					return nil, nil, nil, nil, fmt.Errorf("oracle: v%d model %q job %s: %w", v, name, rec.Job.ID, err)
				}
				oracle[oracleKey{v, served, rec.Job.ID}] = curve
			}
		}
	}
	return p1, p2, recs, oracle, nil
}

// openRegistry opens the registry root and publishes its first generation.
func openRegistry(dir string, p *trainer.Pipeline, notes string) (*registry.Registry, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.PublishPipeline(p, registry.Manifest{Notes: notes}); err != nil {
		return nil, err
	}
	return reg, nil
}

// serveRegistry boots the tasqd-equivalent over reg in process: an
// unloaded server built with opts, a reloader polling every poll that has
// made its first sync, and a loopback listener the caller closes.
func serveRegistry(reg *registry.Registry, poll time.Duration, logf func(string, ...any), opts ...serve.Option) (*serve.Server, *serve.Reloader, *httptest.Server, error) {
	srv, err := serve.NewUnloadedServer(opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	rl, err := serve.NewReloader(reg, srv, poll, logf)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := rl.Sync(); err != nil {
		return nil, nil, nil, err
	}
	return srv, rl, httptest.NewServer(srv.Handler()), nil
}

// firstErr keeps the first invariant violation any goroutine reports.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// attempt is one cell of the ledger: a member's route answering with a
// status (0 = transport error, the member never answered). draining marks
// a 503 from a draining admission gate, which reconciles against its own
// shed counter.
type attempt struct {
	member, route string
	status        int
	draining      bool
}

// class is the status class the server's HTTP counters are labeled with.
func (a attempt) class() string {
	if a.status >= 100 && a.status <= 599 {
		return fmt.Sprintf("%dxx", a.status/100)
	}
	return "0xx"
}

// ledger counts every HTTP attempt a soak's clients make, per member: the
// client half of the /metrics reconciliation. The single-server soaks are
// the one member "".
type ledger struct {
	mu sync.Mutex
	n  map[attempt]int64
}

func newLedger() *ledger { return &ledger{n: map[attempt]int64{}} }

// hook is the OnAttempt observer for the clients that talk to member.
func (l *ledger) hook(member string) func(method, path string, status int, err error) {
	return func(_ string, path string, status int, err error) { l.record(member, path, status, err) }
}

// record counts one attempt; requests sent without a serve.Client are
// tallied through it by hand.
func (l *ledger) record(member, route string, status int, err error) {
	a := attempt{member: member, route: route, status: status}
	var se *serve.StatusError
	if status == http.StatusServiceUnavailable && errors.As(err, &se) {
		a.draining = strings.Contains(se.Message, "draining")
	}
	l.mu.Lock()
	l.n[a]++
	l.mu.Unlock()
}

// count sums the attempts match selects.
func (l *ledger) count(match func(attempt) bool) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for a, c := range l.n {
		if match(a) {
			n += c
		}
	}
	return n
}

// statuses histograms a member's attempts by wire status.
func (l *ledger) statuses(member string) map[int]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int]int64{}
	for a, c := range l.n {
		if a.member == member {
			out[a.status] += c
		}
	}
	return out
}

// counters tallies what a soak's operations observed beyond the wire
// attempts.
type counters struct {
	mu sync.Mutex
	// versions is the set of generations a 200 may be served by; it is
	// fixed before traffic starts.
	versions    map[int]bool
	ops         int64
	failed      int64
	failedKinds map[string]int64
	intended400 int64
	itemsOK     int64
	itemsFailed int64
	circuitOpen int64
	// strandedCap bounds batch items a member may have scored inside an
	// envelope whose sibling group failed (the client never saw the
	// partial result, so it can only bound, not count).
	strandedCap int64
}

// reconciledRoutes are the routes whose HTTP counters every member must
// balance against its clients' attempts.
var reconciledRoutes = []string{"/v1/score", "/v1/score/batch", "/readyz"}

// reconcileMember balances one member's client attempts against its
// server-side counters: every route × status class, every shed reason,
// and the admission gauges, which must have quiesced to zero. total holds
// the member's counters (summed across incarnations where members
// restart); now holds its live gauges.
func reconcileMember(id string, led *ledger, total, now map[string]float64) error {
	for _, route := range reconciledRoutes {
		for _, cls := range []string{"2xx", "4xx", "5xx"} {
			key := fmt.Sprintf("tasq_http_requests_total{code=%q,route=%q}", cls, route)
			want := led.count(func(a attempt) bool { return a.member == id && a.route == route && a.class() == cls })
			if got := total[key]; got != float64(want) {
				return fmt.Errorf("reconcile member %q %s: server %v, clients %v", id, key, got, want)
			}
		}
	}
	withStatus := func(code int) int64 {
		return led.count(func(a attempt) bool { return a.member == id && a.status == code })
	}
	// Draining sheds survive a drain-restart cycle: the counter summed over
	// incarnations equals the draining 503s clients saw on the gated routes.
	shedWant := map[string]int64{
		"queue_full": withStatus(http.StatusTooManyRequests),
		"deadline":   withStatus(http.StatusGatewayTimeout),
		"draining": led.count(func(a attempt) bool {
			return a.member == id && a.draining && a.route != "/readyz"
		}),
		"client_gone": 0,
	}
	for reason, want := range shedWant {
		key := fmt.Sprintf("%s{reason=%q}", obs.MetricShedTotal, reason)
		if got := total[key]; got != float64(want) {
			return fmt.Errorf("reconcile member %q %s: server %v, clients %v", id, key, got, want)
		}
	}
	for _, gauge := range []string{obs.MetricQueueDepth, obs.MetricAdmissionInFlight} {
		if got := now[gauge]; got != 0 {
			return fmt.Errorf("member %q gauge %s = %v after quiesce, want 0", id, gauge, got)
		}
	}
	return nil
}

// reconcileScored checks that no score was lost or double counted: the
// jobs the members counted as scored ok are the 200s clients received —
// single scores plus items of delivered batch envelopes — plus at most
// the items stranded in envelopes a failed sibling group threw away.
func reconcileScored(okJobs float64, led *ledger, cnt *counters) error {
	singles := led.count(func(a attempt) bool { return a.route == "/v1/score" && a.class() == "2xx" })
	cnt.mu.Lock()
	itemsOK, stranded := cnt.itemsOK, cnt.strandedCap
	cnt.mu.Unlock()
	delivered := float64(singles + itemsOK)
	if okJobs < delivered {
		return fmt.Errorf("reconcile scored-ok: members %v < delivered %v (singles %d + items %d) — scores lost",
			okJobs, delivered, singles, itemsOK)
	}
	if okJobs > delivered+float64(stranded) {
		return fmt.Errorf("reconcile scored-ok: members %v > delivered %v + stranded cap %d — double count",
			okJobs, delivered, stranded)
	}
	return nil
}

// faultTraceLen is the schedule prefix a fault trace records.
const faultTraceLen = 256

// faultTrace renders the pure fault schedule of each site as a '0'/'1'
// string of faultTraceLen decisions — equal across same-seed runs by
// construction, and cross-checked against an injector's recorded firings
// via Verify.
func faultTrace(seed int64, p faults.Profile, sites []string) map[string]string {
	out := make(map[string]string, len(sites))
	for _, site := range sites {
		b := make([]byte, faultTraceLen)
		for i, fire := range faults.Schedule(seed, site, rateOf(p, site), faultTraceLen) {
			b[i] = '0'
			if fire {
				b[i] = '1'
			}
		}
		out[site] = string(b)
	}
	return out
}

// rateOf maps a site to its configured rate (mirrors the profile's
// internal mapping; used to recompute the pure schedule for the trace).
func rateOf(p faults.Profile, site string) float64 {
	switch site {
	case faults.SiteScoreLatency:
		return p.LatencyRate
	case faults.SiteScoreError:
		return p.ErrorRate
	case faults.SiteBatchItem:
		return p.BatchItemRate
	case faults.SiteRegistrySlow:
		return p.RegistrySlowRate
	case faults.SiteRegistryCorrupt:
		return p.RegistryCorruptRate
	case faults.SiteReplicaKill:
		return p.ReplicaKillRate
	case faults.SiteReplicaPartition:
		return p.ReplicaPartitionRate
	}
	return 0
}

// statusOf extracts the wire status of a failed call: (status, true) for
// a *serve.StatusError, (0, false) otherwise.
func statusOf(err error) (int, bool) {
	var se *serve.StatusError
	if errors.As(err, &se) {
		return se.Code, true
	}
	return 0, false
}

// allowed reports whether a failure status is in the op's allowed set.
func allowed(err error, statuses ...int) bool {
	code, ok := statusOf(err)
	if !ok {
		return false
	}
	for _, s := range statuses {
		if code == s {
			return true
		}
	}
	return false
}

// checkScore validates a successful scoring response: known model, a
// served registry generation, a valid curve, predictions consistent with
// that curve, and — for the usual non-increasing PCC shape from §2 of the
// paper — run times monotone non-increasing in tokens. (A trained model
// may legitimately fit a rising curve for an oddball job, so monotonicity
// is asserted exactly when the curve's own slope is non-positive.) With a
// non-nil oracle and a known job ID it additionally asserts the response
// curve equals — exactly — what the labeled generation computes for the
// job, which is what proves the serving curve cache never outlives a hot
// reload.
func checkScore(resp *serve.ScoreResponse, versions map[int]bool, oracle curveOracle, jobID string) error {
	if resp.Model == "" {
		return errors.New("200 response without a model name")
	}
	if !versions[resp.ModelVersion] {
		return fmt.Errorf("200 response served by unexpected generation v%d", resp.ModelVersion)
	}
	curve := resp.CurveValue()
	if !curve.Valid() {
		return fmt.Errorf("200 response with invalid curve %+v", resp.Curve)
	}
	if len(resp.Predictions) == 0 {
		return errors.New("200 response without predictions")
	}
	for i, pt := range resp.Predictions {
		want := curve.Runtime(float64(pt.Tokens))
		if diff := pt.RuntimeSeconds - want; diff > 1e-6*want || diff < -1e-6*want {
			return fmt.Errorf("prediction %d inconsistent with its curve: %d tokens → %.6fs, curve says %.6fs",
				i, pt.Tokens, pt.RuntimeSeconds, want)
		}
	}
	if curve.NonIncreasing() {
		for i := 1; i < len(resp.Predictions); i++ {
			prev, cur := resp.Predictions[i-1], resp.Predictions[i]
			if cur.Tokens > prev.Tokens && cur.RuntimeSeconds > prev.RuntimeSeconds*(1+1e-9) {
				return fmt.Errorf("predictions not monotone: %d tokens → %.6fs but %d tokens → %.6fs",
					prev.Tokens, prev.RuntimeSeconds, cur.Tokens, cur.RuntimeSeconds)
			}
		}
	}
	if resp.OptimalTokens < 1 {
		return fmt.Errorf("200 response with optimal_tokens %d", resp.OptimalTokens)
	}
	if oracle != nil && jobID != "" {
		want, ok := oracle[oracleKey{resp.ModelVersion, resp.Model, jobID}]
		if !ok {
			return fmt.Errorf("job %s served by %s v%d, which no oracle generation computes", jobID, resp.Model, resp.ModelVersion)
		}
		if resp.Curve.A != want.A || resp.Curve.B != want.B {
			return fmt.Errorf("stale curve: v%d %s served job %s (a=%g, b=%g) but that generation computes (a=%g, b=%g)",
				resp.ModelVersion, resp.Model, jobID, resp.Curve.A, resp.Curve.B, want.A, want.B)
		}
	}
	return nil
}

// recoverScores scores every job once the storm has cleared: each must
// succeed and match versions and the oracle. It returns how many did.
func recoverScores(score func(*serve.ScoreRequest) (*serve.ScoreResponse, error), recs []*jobrepo.Record, versions map[int]bool, oracle curveOracle) (int, error) {
	for i, rec := range recs {
		resp, err := score(&serve.ScoreRequest{Job: rec.Job})
		if err == nil {
			err = checkScore(resp, versions, oracle, rec.Job.ID)
		}
		if err != nil {
			return i, fmt.Errorf("recovery score %s after the storm: %w", rec.Job.ID, err)
		}
	}
	return len(recs), nil
}

// recordBatch validates a successful batch envelope: every item carries a
// status from the per-item contract, expected-invalid items fail with
// their expected class (or an injected 500, which outranks validation),
// and item successes are sane scores. expect may be nil when all items
// are valid; ids carries the job ID per item for the staleness oracle.
func recordBatch(resp *serve.BatchScoreResponse, cnt *counters, errs *firstErr, expect []string, oracle curveOracle, ids []string) {
	var ok, failed int64
	for i, item := range resp.Results {
		exp := "ok"
		if expect != nil && i < len(expect) {
			exp = expect[i]
		}
		switch item.Status {
		case http.StatusOK:
			if exp != "ok" {
				errs.set(fmt.Errorf("batch item %d: unexpected 200 for a %s item", i, exp))
				continue
			}
			if item.Response == nil {
				errs.set(fmt.Errorf("batch item %d: 200 without a response", i))
				continue
			}
			jobID := ""
			if ids != nil && i < len(ids) {
				jobID = ids[i]
			}
			if err := checkScore(item.Response, cnt.versions, oracle, jobID); err != nil {
				errs.set(fmt.Errorf("batch item %d: %w", i, err))
			}
			ok++
		case http.StatusInternalServerError: // injected — allowed for any item
			failed++
		case http.StatusBadRequest:
			if exp != "bad" {
				errs.set(fmt.Errorf("batch item %d: unexpected 400 for a valid item: %s", i, item.Error))
			}
			failed++
		case http.StatusConflict:
			if exp != "conflict" {
				errs.set(fmt.Errorf("batch item %d: unexpected 409 for item: %s", i, item.Error))
			}
			failed++
		default:
			errs.set(fmt.Errorf("batch item %d: status %d outside the item contract", i, item.Status))
			failed++
		}
	}
	if resp.Succeeded != int(ok) || resp.Failed != int(failed) {
		errs.set(fmt.Errorf("batch envelope counts %d/%d disagree with items %d/%d",
			resp.Succeeded, resp.Failed, ok, failed))
	}
	cnt.mu.Lock()
	cnt.itemsOK += ok
	cnt.itemsFailed += failed
	cnt.mu.Unlock()
}
