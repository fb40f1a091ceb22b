// Package serve implements the model-serving side of the TASQ system
// integration (Figure 4): an HTTP scoring service that accepts an incoming
// job's compile-time information, featurizes it through the trained
// pipeline and returns the predicted PCC, run-time estimates over candidate
// token counts, and the optimal token recommendation. A typed Go client
// mirrors the Python client for SCOPE.
//
// The service is production-hardened: single (`POST /v1/score`) and batch
// (`POST /v1/score/batch`) scoring over a bounded worker pool, Prometheus
// metrics at `GET /metrics`, liveness (`/healthz`) and readiness
// (`/readyz`) probes, structured request logging with request IDs, and a
// strict error contract — invalid requests yield HTTP 400, internal
// pipeline failures HTTP 500.
//
// Scoring is model-addressable: a request may name any registered
// predictor (trained models or the §6 baselines) via the optional `model`
// field, batch items route independently, and `GET /v1/models` lists what
// the loaded pipeline can serve. Naming an unknown model is a client
// error (400); naming a known predictor the loaded pipeline never trained
// is a conflict (409) — retrying the same request against a generation
// that trained it would succeed.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tasq/internal/faults"
	"tasq/internal/model"
	"tasq/internal/obs"
	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
)

// maxBodyBytes bounds request and response bodies read into memory.
const maxBodyBytes = 16 << 20

// ScoreRequest is the scoring-pipeline input: the compile-time job
// description plus optional what-if parameters.
type ScoreRequest struct {
	Job *scopesim.Job `json:"job"`
	// CandidateTokens are token counts to tabulate run-time predictions
	// for; defaults to a sweep up to the requested tokens.
	CandidateTokens []int `json:"candidate_tokens,omitempty"`
	// Threshold is the §2.1 optimal-allocation termination threshold
	// (default pcc.DefaultThreshold: demand ≥1% improvement per extra
	// token). Negative values are rejected.
	Threshold float64 `json:"threshold,omitempty"`
	// MaxTokens caps the optimal-token search (default: requested
	// tokens). Negative values are rejected.
	MaxTokens int `json:"max_tokens,omitempty"`
	// Model names the predictor to score with (case/spacing-insensitive,
	// e.g. "NN", "xgboost-pl", "AutoToken"). Empty follows the server's
	// fallback policy. Unknown names, the unserved §6.3 simulators
	// "Jockey" and "Amdahl" among them, are rejected with 400; known but
	// untrained predictors with 409.
	Model string `json:"model,omitempty"`
}

// CurveJSON is the serialized PCC.
type CurveJSON struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// PointJSON is one predicted (tokens, runtime) pair.
type PointJSON struct {
	Tokens         int     `json:"tokens"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
}

// ScoreResponse is the scoring-pipeline output.
type ScoreResponse struct {
	Model string `json:"model"`
	// ModelVersion is the registry version that served this score (0 =
	// unversioned, e.g. a file-loaded model).
	ModelVersion  int         `json:"model_version,omitempty"`
	Curve         CurveJSON   `json:"curve"`
	OptimalTokens int         `json:"optimal_tokens"`
	Predictions   []PointJSON `json:"predictions"`
}

// scorer is the slice of trainer.Pipeline the server needs; tests inject
// failing implementations to exercise the internal-error path.
type scorer interface {
	// ScoreJobModel scores through the named predictor, or through the
	// fallback policy when name is empty.
	ScoreJobModel(name string, job *scopesim.Job) (pcc.Curve, string, error)
	// ModelInfos lists the predictors GET /v1/models reports.
	ModelInfos() []model.Info
}

// requestError marks a client-side validation failure. Handlers map it to
// HTTP 400; every other scoring error is an internal failure and maps to
// HTTP 500.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// reqErrf builds a requestError.
func reqErrf(format string, args ...any) error {
	return &requestError{err: fmt.Errorf(format, args...)}
}

// errNoModel is returned while no model has been loaded yet (unloaded
// server before its first registry sync); it maps to 503 so load
// balancers retry elsewhere instead of counting a client error.
var errNoModel = errors.New("serve: no model loaded")

// httpStatus maps a scoring error onto the 400/409/503/500 contract.
// Unknown model names are client errors; known-but-untrained (or
// not-covering-this-job) predictors are conflicts with the loaded model
// generation, retryable against a generation that trained them.
func httpStatus(err error) int {
	var re *requestError
	if errors.As(err, &re) {
		return http.StatusBadRequest
	}
	if errors.Is(err, model.ErrUnknownModel) {
		return http.StatusBadRequest
	}
	// A missing token bound is the caller's omission (supply max_tokens or
	// score a record with observed tokens), same contract as a negative one.
	if errors.Is(err, trainer.ErrNoTokenBound) {
		return http.StatusBadRequest
	}
	// The shared allocation core's validation failures are the planner
	// request's to fix.
	if errors.Is(err, plan.ErrInvalid) {
		return http.StatusBadRequest
	}
	if errors.Is(err, model.ErrUntrained) || errors.Is(err, model.ErrUncovered) {
		return http.StatusConflict
	}
	if errors.Is(err, errNoModel) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// StatusError is returned by Client methods when the service answers with
// a non-200 status, preserving the code so callers — and the client's own
// retry loop — can distinguish their bad requests (400, 409) from
// overload and server-side failures (429, 5xx).
type StatusError struct {
	Code    int
	Message string
	// RetryAfter is the service's Retry-After hint, when one was sent
	// (overload sheds carry it); 0 means none.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: status %d: %s", e.Code, e.Message)
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an
// HTTP-date. 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(h); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// activeModel is one loaded model generation: an immutable scorer plus
// the registry version it came from (0 = unversioned, e.g. a -model
// file). Swaps replace the whole value through an atomic pointer, so
// in-flight requests keep the generation they started with. The curve
// cache rides inside the generation: the same atomic store that installs
// a new scorer installs its fresh, empty cache, so no ordering of loads
// can pair a new generation with a predecessor's memoized curves.
type activeModel struct {
	scorer  scorer
	version int
	cache   *curveCache

	// scores holds the tasq_score_total{model} handle of every predictor
	// that has served a curve in this generation, so a miss pays the
	// registry's label lookup once per predictor rather than once per job.
	mu     sync.Mutex
	scores map[string]*obs.Counter
}

// servedCounter returns the generation's tasq_score_total handle for the
// predictor that served a curve, registering the series on first use —
// which is when it first appeared on /metrics before, too.
func (a *activeModel) servedCounter(reg *obs.Registry, served string) *obs.Counter {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.scores[served]
	if !ok {
		c = reg.Counter("tasq_score_total", "model", served)
		a.scores[served] = c
	}
	return c
}

// shadowModel is a candidate generation scored alongside the active one.
// Its divergence metrics are resolved per candidate version at swap time,
// so /metrics separates the divergence of v3-vs-v2 from v4-vs-v2.
type shadowModel struct {
	scorer   scorer
	version  int
	scores   *obs.Counter
	failures *obs.Counter
	disagree *obs.Counter
	delta    *obs.Histogram
}

// Server scores jobs with a trained pipeline. One Server is shared across
// all handler goroutines; each loaded model is immutable and swapped
// atomically, so the server itself never restarts to pick up a new
// version.
type Server struct {
	active   atomic.Pointer[activeModel]
	shadow   atomic.Pointer[shadowModel]
	mux      *http.ServeMux
	reg      *obs.Registry
	logger   *obs.Logger
	workers  int
	maxBatch int
	ready    atomic.Bool

	// gate sheds scoring work beyond the configured concurrency + queue
	// bounds; inj, when set, injects deterministic faults (test/dev only).
	gate        *gate
	inj         *faults.Injector
	maxInFlight int
	maxQueue    int
	queueWait   time.Duration

	// shadowEvery samples every Nth scoring request into the shadow
	// model, from shadowRate; 0 disables shadow scoring.
	shadowRate  float64
	shadowEvery int64
	shadowSeq   atomic.Int64

	// cacheCap bounds each generation's memoized-curve cache; 0 disables
	// memoization entirely. cacheMet holds the obs handles the
	// per-generation caches share.
	cacheCap int
	cacheMet *cacheMetrics

	// reloadFn, when set, is invoked by POST /v1/admin/reload to sync
	// against the model registry immediately.
	reloadFn atomic.Pointer[func() error]

	// telemetry, when set, receives observed-run records from POST
	// /v1/telemetry — the feedback half of the learning loop.
	telemetry         TelemetrySink
	telemetryAccepted *obs.Counter
	telemetryRejected *obs.Counter
	telemetryShed     *obs.Counter

	// clusterID and clusterPeers identify this server's place in a tasqd
	// fleet; GET /v1/cluster answers 404 until WithClusterInfo sets them.
	clusterID    string
	clusterPeers []string

	planMet      map[string]*planStrategyMetrics
	planMakespan *obs.Histogram
	planWait     *obs.Histogram

	scoreOK       *obs.Counter
	scoreRejected *obs.Counter
	scoreFailed   *obs.Counter
	activeVersion *obs.Gauge
	shadowVersion *obs.Gauge
}

// Option customizes a Server. Each option applies the value it is given;
// NewServer and NewUnloadedServer refuse a value that means nothing.
type Option func(*Server)

// WithLogger enables structured request logging.
func WithLogger(l *obs.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// DefaultMaxBatch is the per-request batch item cap.
const DefaultMaxBatch = 1024

// WithAdmission bounds the scoring endpoints: at most limit requests
// execute concurrently (default DefaultMaxInFlight; at least 1), at most
// queue wait behind them in FIFO order (default DefaultMaxQueue; 0 sheds
// every arrival beyond the limit), and no request waits longer than wait
// (default DefaultQueueWait; positive) before being shed with 504.
// Arrivals beyond the queue bound are shed immediately with 429 +
// Retry-After.
func WithAdmission(limit, queue int, wait time.Duration) Option {
	return func(s *Server) {
		s.maxInFlight, s.maxQueue, s.queueWait = limit, queue, wait
	}
}

// WithFaultInjector threads a deterministic fault injector into the
// scoring path: injected latency, synthetic scoring errors and per-item
// batch failures. For chaos tests and the tasqd -fault-profile dev flag —
// never production.
func WithFaultInjector(in *faults.Injector) Option {
	return func(s *Server) { s.inj = in }
}

// WithShadowSampleRate sets the fraction of scoring requests, in [0, 1],
// that are also scored by the shadow (candidate) model when one is
// loaded: 1 shadows every request, 0.1 every tenth, 0 disables shadow
// scoring. The default is 1 — with the cheap PCC models, full mirroring is
// affordable and gives the fastest divergence signal.
func WithShadowSampleRate(rate float64) Option {
	return func(s *Server) { s.shadowRate = rate }
}

// validate refuses settings that mean nothing instead of coercing them to
// a default nobody asked for. Each setting is named in tasqd's flag
// style, after its flag where it has one.
func (s *Server) validate() error {
	bad := func(name string, v any, want string) error {
		return fmt.Errorf("serve: %s %v: must be %s", name, v, want)
	}
	switch {
	case s.maxInFlight < 1:
		return bad("max-inflight", s.maxInFlight, "at least 1")
	case s.maxQueue < 0:
		return bad("max-queue", s.maxQueue, "at least 0")
	case s.queueWait <= 0:
		return bad("queue-wait", s.queueWait, "positive")
	case !(s.shadowRate >= 0 && s.shadowRate <= 1):
		return bad("shadow-sample", s.shadowRate, "in [0, 1]")
	}
	return nil
}

// NewServer wraps a trained pipeline.
func NewServer(p *trainer.Pipeline, opts ...Option) (*Server, error) {
	if p == nil {
		return nil, errors.New("serve: nil pipeline")
	}
	return newServer(p, opts...)
}

// NewUnloadedServer builds a Server with no model yet: scoring answers
// 503 and /readyz stays not-ready until the first SetActive — the
// registry-backed deployment path, where a Reloader installs the model
// before the listener opens.
func NewUnloadedServer(opts ...Option) (*Server, error) {
	return newServer(nil, opts...)
}

// newServer builds a Server over any scorer (nil = start unloaded); split
// from NewServer so tests can inject failing pipelines.
func newServer(p scorer, opts ...Option) (*Server, error) {
	s := &Server{
		mux:         http.NewServeMux(),
		reg:         obs.NewRegistry(),
		workers:     runtime.NumCPU(),
		maxBatch:    DefaultMaxBatch,
		shadowRate:  1,
		maxInFlight: DefaultMaxInFlight,
		maxQueue:    DefaultMaxQueue,
		queueWait:   DefaultQueueWait,
		cacheCap:    DefaultCurveCacheCap,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.shadowRate > 0 {
		s.shadowEvery = int64(math.Round(1 / s.shadowRate))
	}
	s.gate = newGate(s.maxInFlight, s.maxQueue, s.queueWait, s.reg)
	s.cacheMet = newCacheMetrics(s.reg)
	s.initTelemetryMetrics()
	s.initPlanMetrics()

	s.reg.SetHelp("tasq_score_jobs_total", "Jobs scored, by outcome (ok, rejected, failed).")
	s.scoreOK = s.reg.Counter("tasq_score_jobs_total", "outcome", "ok")
	s.scoreRejected = s.reg.Counter("tasq_score_jobs_total", "outcome", "rejected")
	s.scoreFailed = s.reg.Counter("tasq_score_jobs_total", "outcome", "failed")
	s.reg.SetHelp("tasq_score_total", "Successful scores by the predictor that served them.")
	s.reg.SetHelp("tasq_model_version", "Registry version of the loaded model by role (active, shadow); 0 = none/unversioned.")
	s.activeVersion = s.reg.Gauge("tasq_model_version", "role", "active")
	s.shadowVersion = s.reg.Gauge("tasq_model_version", "role", "shadow")

	if p != nil {
		s.setActive(p, 0)
	}

	s.route("/healthz", http.HandlerFunc(s.handleHealth))
	s.route("/readyz", http.HandlerFunc(s.handleReady))
	// Only the scoring endpoints sit behind the admission gate: probes,
	// metrics and admin must keep answering while the service sheds load.
	s.route("/v1/score", s.gated(http.HandlerFunc(s.handleScore)))
	s.route("/v1/score/batch", s.gated(http.HandlerFunc(s.handleScoreBatch)))
	s.route("/v1/plan", s.gated(http.HandlerFunc(s.handlePlan)))
	s.route("/v1/telemetry", s.gated(http.HandlerFunc(s.handleTelemetry)))
	s.route("/v1/models", http.HandlerFunc(s.handleModels))
	s.route("/v1/cluster", http.HandlerFunc(s.handleCluster))
	s.route("/v1/admin/reload", http.HandlerFunc(s.handleAdminReload))
	s.mux.Handle("/metrics", s.reg.Handler())
	return s, nil
}

// SetActive atomically swaps the serving model; in-flight requests finish
// on the generation they started with. The first load also flips the
// server ready.
func (s *Server) SetActive(p *trainer.Pipeline, version int) error {
	if p == nil {
		return errors.New("serve: nil pipeline")
	}
	s.setActive(p, version)
	return nil
}

func (s *Server) setActive(sc scorer, version int) {
	gen := &activeModel{
		scorer:  sc,
		version: version,
		cache:   newCurveCache(s.cacheCap, s.cacheMet),
		scores:  make(map[string]*obs.Counter),
	}
	first := s.active.Swap(gen) == nil
	// The swapped-out generation's curves are unreachable the moment the
	// store lands; reset the size gauge to the new (empty) cache.
	s.cacheMet.size.Set(0)
	s.activeVersion.Set(int64(version))
	if first {
		s.ready.Store(true)
	}
}

// SetShadow installs a candidate model that a sample of live requests is
// scored against; divergence metrics are labeled with the candidate
// version.
func (s *Server) SetShadow(p *trainer.Pipeline, version int) error {
	if p == nil {
		return errors.New("serve: nil pipeline")
	}
	s.setShadow(p, version)
	return nil
}

func (s *Server) setShadow(sc scorer, version int) {
	cv := fmt.Sprintf("v%d", version)
	s.reg.SetHelp("tasq_shadow_scores_total", "Requests mirrored to the shadow candidate model.")
	s.reg.SetHelp("tasq_shadow_score_failures_total", "Shadow candidate scoring failures (errors or invalid curves).")
	s.reg.SetHelp("tasq_shadow_optimal_disagreement_total", "Shadow scores whose optimal-token recommendation differs from the active model's.")
	s.reg.SetHelp("tasq_shadow_runtime_rel_delta", "Relative |candidate-active| predicted-runtime delta at the request's token cap.")
	s.shadow.Store(&shadowModel{
		scorer:   sc,
		version:  version,
		scores:   s.reg.Counter("tasq_shadow_scores_total", "candidate", cv),
		failures: s.reg.Counter("tasq_shadow_score_failures_total", "candidate", cv),
		disagree: s.reg.Counter("tasq_shadow_optimal_disagreement_total", "candidate", cv),
		delta:    s.reg.Histogram("tasq_shadow_runtime_rel_delta", obs.RelDeltaBuckets, "candidate", cv),
	})
	s.shadowVersion.Set(int64(version))
}

// ClearShadow removes the candidate model (e.g. after promotion).
func (s *Server) ClearShadow() {
	s.shadow.Store(nil)
	s.shadowVersion.Set(0)
}

// ActiveVersion returns the registry version of the serving model (0 =
// none or unversioned).
func (s *Server) ActiveVersion() int {
	if m := s.active.Load(); m != nil {
		return m.version
	}
	return 0
}

// ShadowVersion returns the candidate version being shadow-scored (0 =
// none).
func (s *Server) ShadowVersion() int {
	if m := s.shadow.Load(); m != nil {
		return m.version
	}
	return 0
}

// setReloadFunc wires the admin-reload endpoint to a registry sync; used
// by NewReloader.
func (s *Server) setReloadFunc(fn func() error) { s.reloadFn.Store(&fn) }

// route mounts a handler wrapped with per-route metrics and logging.
func (s *Server) route(pattern string, h http.Handler) {
	s.mux.Handle(pattern, obs.Instrument(s.reg, s.logger, pattern, h))
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// decodeBody reads and unmarshals a bounded request body into v through a
// pooled buffer (json.Unmarshal copies what it keeps, so recycling the
// raw bytes is safe). On failure it answers the request itself and
// returns false: 413 for a body over maxBodyBytes (never a parse of its
// truncated prefix), 400 for one that does not read or decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxBodyBytes+1)); err != nil {
		http.Error(w, fmt.Sprintf("reading request: %v", err), http.StatusBadRequest)
		return false
	}
	if buf.Len() > maxBodyBytes {
		discardBody(r)
		http.Error(w, fmt.Sprintf("serve: request body exceeds the %d-byte limit", maxBodyBytes), http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// discardBody reads out what is left of a refused request's body, up to
// maxBodyBytes more. A Connection: close client may still be writing it,
// and closing on unread bytes resets the connection: the client would see
// a broken pipe, not the refusal, and could not tell a refused request
// from one that ran.
func discardBody(r *http.Request) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, maxBodyBytes))
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req ScoreRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.ScoreLocal(&req)
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
	putScoreResponse(resp)
}

// ScoreLocal scores one request in process, bypassing HTTP — the
// single-score endpoint's path, and the entry point for embedders (and
// the fleet benchmarks) that colocate the caller with a member. The
// injector's score-site faults apply here (batch items draw from their
// own site so the schedules stay independent), then the shared scoring
// path runs. The returned response is pooled: call Release when done
// with it and touch nothing afterwards.
func (s *Server) ScoreLocal(req *ScoreRequest) (*ScoreResponse, error) {
	if d := s.inj.Latency(); d > 0 {
		time.Sleep(d)
	}
	if err := s.inj.ScoreError(); err != nil {
		s.scoreFailed.Inc()
		return nil, fmt.Errorf("serve: scoring: %w", err)
	}
	return s.score(req)
}

// ModelsResponse lists the predictors the loaded pipeline can serve.
type ModelsResponse struct {
	// ModelVersion is the registry version of the loaded pipeline (0 =
	// unversioned).
	ModelVersion int          `json:"model_version,omitempty"`
	Models       []model.Info `json:"models"`
}

// handleModels reports the loaded pipeline's predictor set: every
// registered name, its kind (trained model vs prior-art baseline), and
// whether this generation actually trained it — the names a ScoreRequest
// may put in its `model` field.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	active := s.active.Load()
	if active == nil {
		http.Error(w, errNoModel.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, ModelsResponse{ModelVersion: active.version, Models: active.scorer.ModelInfos()})
}

// score runs one request through validation, the generation's memoized
// curve cache and — on a miss — the pipeline. All validation failures
// come back as *requestError (HTTP 400); anything the pipeline itself
// gets wrong is internal (HTTP 500).
func (s *Server) score(req *ScoreRequest) (*ScoreResponse, error) {
	if req.Job == nil {
		s.scoreRejected.Inc()
		return nil, reqErrf("serve: request without job")
	}
	if req.Threshold < 0 {
		s.scoreRejected.Inc()
		return nil, reqErrf("serve: negative threshold %v: the §2.1 termination threshold must be positive (0 selects the %v default)", req.Threshold, pcc.DefaultThreshold)
	}
	if req.MaxTokens < 0 {
		s.scoreRejected.Inc()
		return nil, reqErrf("serve: negative max_tokens %d: the optimal-token search cap must be positive (0 selects the job's requested tokens)", req.MaxTokens)
	}
	for _, tok := range req.CandidateTokens {
		if tok < 1 {
			s.scoreRejected.Inc()
			return nil, reqErrf("serve: candidate token count %d: token counts start at 1", tok)
		}
	}

	active := s.active.Load()
	if active == nil {
		s.scoreFailed.Inc()
		return nil, errNoModel
	}

	curve, served, servedScores, err := s.curveFor(active, req.Model, req.Job)
	if err != nil {
		// Routing and validation failures (invalid job, unknown name,
		// untrained predictor) are the caller's to fix, not a pipeline
		// malfunction.
		if code := httpStatus(err); code == http.StatusBadRequest || code == http.StatusConflict {
			s.scoreRejected.Inc()
		} else {
			s.scoreFailed.Inc()
		}
		return nil, err
	}

	threshold := req.Threshold
	if threshold == 0 {
		threshold = pcc.DefaultThreshold
	}
	maxTokens := req.MaxTokens
	if maxTokens == 0 {
		maxTokens = req.Job.RequestedTokens
	}
	if maxTokens <= 0 {
		maxTokens = 1
	}
	resp := getScoreResponse()
	resp.Model = served
	resp.ModelVersion = active.version
	resp.Curve = CurveJSON{A: curve.A, B: curve.B}
	resp.OptimalTokens = curve.OptimalTokens(1, maxTokens, threshold)
	if len(req.CandidateTokens) == 0 {
		// The default ten-point sweep over [1, maxTokens], appended
		// directly into the pooled response; tok is non-decreasing in i,
		// so comparing against the previous point drops every repeat.
		last := 0
		for i := 1; i <= 10; i++ {
			tok := maxTokens * i / 10
			if tok < 1 {
				tok = 1
			}
			if tok != last {
				last = tok
				resp.Predictions = append(resp.Predictions, PointJSON{
					Tokens:         tok,
					RuntimeSeconds: curve.Runtime(float64(tok)),
				})
			}
		}
	} else {
		for _, tok := range req.CandidateTokens {
			resp.Predictions = append(resp.Predictions, PointJSON{
				Tokens:         tok,
				RuntimeSeconds: curve.Runtime(float64(tok)),
			})
		}
	}
	s.scoreOK.Inc()
	servedScores.Inc()
	s.shadowScore(req, curve, resp.OptimalTokens, maxTokens, threshold)
	return resp, nil
}

// curveFor resolves the predicted PCC for one (model, job) pair through
// the generation's memoized curve cache, falling back to the pipeline on
// a miss — the resolution path /v1/score and /v1/plan share. A cache hit
// skips both the predictor and Job.Validate: entries are only stored for
// jobs that passed validation, and the exact key covers every field
// Validate constrains, so a job that would fail validation can never
// match a stored key. The caller classifies errors via httpStatus and
// owns its own outcome counters; the returned per-model counter is the
// tasq_score_total series for the predictor that served the curve.
func (s *Server) curveFor(active *activeModel, modelName string, job *scopesim.Job) (pcc.Curve, string, *obs.Counter, error) {
	var kb *keyBuf
	var n int
	if active.cache != nil {
		kb = getKeyBuf()
		defer putKeyBuf(kb)
		n = appendScoreKey(kb, modelName, job)
		if e, hit := active.cache.get(kb.b, n); hit {
			return e.curve, e.model, e.counter, nil
		}
	}
	if err := job.Validate(); err != nil {
		return pcc.Curve{}, "", nil, reqErrf("serve: invalid job: %w", err)
	}
	curve, served, err := active.scorer.ScoreJobModel(modelName, job)
	if err != nil {
		return pcc.Curve{}, "", nil, fmt.Errorf("serve: scoring: %w", err)
	}
	if !curve.Valid() {
		return pcc.Curve{}, "", nil, fmt.Errorf("serve: scoring: model %s produced invalid curve %v", served, curve)
	}
	servedScores := active.servedCounter(s.reg, served)
	if active.cache != nil {
		active.cache.put(kb.b, n, cachedScore{curve: curve, model: served, counter: servedScores})
	}
	return curve, served, servedScores, nil
}

// shadowScore mirrors a sampled request into the candidate model and
// records the divergence between the two generations: the relative
// predicted-runtime delta at the request's token cap and whether the
// optimal-token recommendations disagree. Promotion is judged from these
// series on /metrics.
func (s *Server) shadowScore(req *ScoreRequest, activeCurve pcc.Curve, activeOpt, maxTokens int, threshold float64) {
	sh := s.shadow.Load()
	if sh == nil || s.shadowEvery <= 0 {
		return
	}
	if (s.shadowSeq.Add(1)-1)%s.shadowEvery != 0 {
		return
	}
	sh.scores.Inc()
	// Route exactly as the active model did — a requested model name
	// applies to both generations, so the divergence series compares
	// like with like.
	curve, _, err := sh.scorer.ScoreJobModel(req.Model, req.Job)
	if err != nil || !curve.Valid() {
		sh.failures.Inc()
		return
	}
	if curve.OptimalTokens(1, maxTokens, threshold) != activeOpt {
		sh.disagree.Inc()
	}
	activeRT := activeCurve.Runtime(float64(maxTokens))
	if activeRT > 0 {
		sh.delta.Observe(math.Abs(curve.Runtime(float64(maxTokens))-activeRT) / activeRT)
	}
}

// writeJSON encodes v through a pooled buffer, then writes it in one
// call; the buffer doubles as the Content-Length source.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "serve: encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// Client calls a TASQ scoring service.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// Retry, when set, retries transient failures (429/5xx, transport
	// errors on idempotent calls) with capped, deterministically jittered
	// backoff honoring the service's Retry-After hints. Nil (the default)
	// keeps the historical single-attempt behaviour. Batch scoring is
	// retried only when the whole request was shed before execution —
	// partial batches are never blindly resubmitted.
	Retry *RetryPolicy
	// Breaker, when set, short-circuits attempts with ErrCircuitOpen
	// while the service is failing outright (consecutive transport
	// errors / 5xx), probing again after its cooldown.
	Breaker *Breaker
	// OnAttempt, when set, observes every HTTP attempt this client makes
	// (retries included): the wire status (0 = transport error, response
	// never arrived) and the attempt's error, if any. Chaos tests use it
	// to reconcile client-side attempts against server-side counters.
	OnAttempt func(method, path string, status int, err error)

	// sleep overrides the inter-attempt pause in tests.
	sleep func(time.Duration)
}

// NewClient builds a client with a sane default timeout and no retry
// (set Retry/Breaker to opt into resilience).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// doOnce issues one request with the caller's context, returning the
// bounded body and converting non-200 statuses into *StatusError. The
// retry loop in do wraps this; nothing else calls it.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte) ([]byte, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{
			Code:       resp.StatusCode,
			Message:    string(bytes.TrimSpace(body)),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return body, nil
}

// postJSON marshals req, posts it to path through c and decodes the
// response into a new T.
func postJSON[T any](ctx context.Context, c *Client, path string, kind retryKind, req any) (*T, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return decoded[T](c.do(ctx, http.MethodPost, path, payload, kind))
}

// decoded decodes the body of a call that returned no error into a new T.
func decoded[T any](body []byte, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(body, out); err != nil {
		return nil, fmt.Errorf("serve: decoding response: %w", err)
	}
	return out, nil
}

// Health checks the service liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, retryNone); err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			return fmt.Errorf("serve: health status %d", se.Code)
		}
		return err
	}
	return nil
}

// Ready checks the service readiness endpoint; a draining or overloaded
// service returns a *StatusError carrying the status code.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/readyz", nil, retryNone)
	return err
}

// Metrics fetches the Prometheus text exposition of the service.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, err := c.do(ctx, http.MethodGet, "/metrics", nil, retryIdempotent)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Score submits a job for PCC prediction.
func (c *Client) Score(ctx context.Context, req *ScoreRequest) (*ScoreResponse, error) {
	// Scoring is a pure function of the request — idempotent, so
	// transient failures (including transport errors) are retried.
	return postJSON[ScoreResponse](ctx, c, "/v1/score", retryIdempotent, req)
}

// Models lists the predictors the service can score with.
func (c *Client) Models(ctx context.Context) (*ModelsResponse, error) {
	return decoded[ModelsResponse](c.do(ctx, http.MethodGet, "/v1/models", nil, retryIdempotent))
}

// Curve converts the response curve back to a pcc.Curve.
func (r *ScoreResponse) CurveValue() pcc.Curve {
	return pcc.Curve{A: r.Curve.A, B: r.Curve.B}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}
