package tasq

import (
	"time"

	"tasq/internal/arepas"
	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/selection"
	"tasq/internal/serve"
	"tasq/internal/skyline"
	"tasq/internal/sparkadapt"
	"tasq/internal/stats"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// Core domain types.
type (
	// Skyline is a job's per-second token usage.
	Skyline = skyline.Skyline
	// PCC is the power-law performance characteristic curve R = b·Aᵃ.
	PCC = pcc.Curve
	// PCCSample is one (tokens, runtime) observation for curve fitting.
	PCCSample = pcc.Sample
	// Executor runs jobs on the simulated token-based cluster.
	Executor = scopesim.Executor
	// Record pairs a job with its observed production telemetry.
	Record = jobrepo.Record
	// Repository stores historical records.
	Repository = jobrepo.Repository
	// Pipeline is a trained TASQ model suite.
	Pipeline = trainer.Pipeline
	// TrainConfig controls pipeline training.
	TrainConfig = trainer.Config
	// WorkloadGenerator synthesizes SCOPE-like workloads.
	WorkloadGenerator = workload.Generator
	// WorkloadConfig controls workload synthesis.
	WorkloadConfig = workload.Config
	// FlightDataset is the outcome of a §5.1 flighting experiment.
	FlightDataset = flight.Dataset
	// FlightConfig controls the flighting protocol.
	FlightConfig = flight.Config
	// SelectionConfig controls §5.1 stratified job selection.
	SelectionConfig = selection.Config
	// SelectionResult reports the selected subset and its quality.
	SelectionResult = selection.Result
	// Submission is one job entering the cluster queue: it requires Tokens
	// guaranteed tokens for DurationSeconds starting when admitted.
	Submission = plan.Allocation
	// TokenPool is the shared all-or-nothing token ledger both the
	// scheduler and the scopesim executor draw from.
	TokenPool = plan.Pool
	// PlanJobSpec is one job's planning input: identity, arrival, the
	// requested and peak token counts, and its predicted PCC.
	PlanJobSpec = plan.JobSpec
	// PlanConfig selects the pool capacity, policy, threshold, scheduling
	// strategy and tenant quotas for BuildPlan.
	PlanConfig = plan.Config
	// PlanStrategy selects how BuildPlan schedules allocated jobs onto
	// the pool: FCFS, deadline-aware backfill, or first-allocation retry.
	PlanStrategy = plan.Strategy
	// TenantQuota caps each tenant's concurrently held tokens inside a
	// shared pool (PlanConfig.Quota).
	TenantQuota = plan.Quota
	// ClusterPlan is a built plan: per-job allocations, the simulated
	// FCFS schedule, and aggregate queueing statistics.
	ClusterPlan = plan.Plan
	// ScoringServer serves PCC predictions over HTTP (Figure 4).
	ScoringServer = serve.Server
	// ScoringClient calls a scoring service.
	ScoringClient = serve.Client
	// ScoreRequest is the scoring-endpoint input.
	ScoreRequest = serve.ScoreRequest
	// BatchScoreRequest scores several jobs in one concurrent call.
	BatchScoreRequest = serve.BatchScoreRequest
	// ScoringOption customizes a ScoringServer (worker-pool size,
	// admission bounds, curve cache, request logging).
	ScoringOption = serve.Option
	// ModelRegistry is the versioned model store of Figure 4: atomic
	// publish, checksum-verified load, pinning and GC.
	ModelRegistry = registry.Registry
	// ModelManifest describes one published registry version.
	ModelManifest = registry.Manifest
	// ModelReloader hot-swaps a ScoringServer against a ModelRegistry.
	ModelReloader = serve.Reloader
)

// Cluster is a fixed-capacity token pool with FCFS admission: a job is
// admitted when its full token request is free, and later arrivals cannot
// jump the queue (no backfilling), which models SCOPE's guaranteed-token
// admission.
type Cluster struct {
	Capacity int
}

// Run simulates the submissions and returns their schedules in input order.
func (c *Cluster) Run(subs []Submission) ([]plan.Outcome, error) {
	return plan.SimulateFCFS(c.Capacity, subs)
}

// NewExecutor returns a deterministic cluster executor.
func NewExecutor() *Executor { return &Executor{} }

// NewRepository returns an empty historical job repository.
func NewRepository() *Repository { return jobrepo.New() }

// NewWorkloadGenerator builds a synthetic workload generator.
func NewWorkloadGenerator(cfg WorkloadConfig) *WorkloadGenerator { return workload.New(cfg) }

// DefaultWorkloadConfig returns the production-like synthesis defaults.
func DefaultWorkloadConfig(seed int64) WorkloadConfig { return workload.DefaultConfig(seed) }

// SmallWorkloadConfig returns a reduced-scale configuration suitable for
// examples, demos and tests.
func SmallWorkloadConfig(seed int64) WorkloadConfig { return workload.TestConfig(seed) }

// TrainPipeline trains the TASQ model suite on historical records.
func TrainPipeline(recs []*Record, cfg TrainConfig) (*Pipeline, error) {
	return trainer.Train(recs, cfg)
}

// DefaultTrainConfig returns the paper's preferred (LF2) configuration.
func DefaultTrainConfig(seed int64) TrainConfig { return trainer.DefaultConfig(seed) }

// SimulateSkyline runs AREPAS (Algorithm 1): the skyline the same job
// would produce at a different token allocation, under area preservation.
func SimulateSkyline(orig Skyline, tokens int) (Skyline, error) {
	return arepas.Simulate(orig, tokens)
}

// FitPCC fits the power-law curve to samples in log–log space.
func FitPCC(samples []PCCSample) (PCC, error) { return pcc.Fit(samples) }

// SelectJobs runs the §5.1 stratified under-sampling procedure.
func SelectJobs(population, pool []*Record, cfg SelectionConfig) (*SelectionResult, error) {
	return selection.Select(population, pool, cfg)
}

// FlightJobs re-executes selected jobs at several token counts with
// redundancy and anomaly filtering (§5.1).
func FlightJobs(selected []*Record, ex *Executor, cfg FlightConfig) (*FlightDataset, error) {
	return flight.Execute(selected, ex, cfg)
}

// DefaultFlightConfig mirrors the paper's flighting protocol.
func DefaultFlightConfig(seed int64) FlightConfig { return flight.DefaultConfig(seed) }

// NewScoringServer wraps a trained pipeline as an HTTP service with
// batch scoring, Prometheus metrics and readiness probes.
func NewScoringServer(p *Pipeline, opts ...ScoringOption) (*ScoringServer, error) {
	return serve.NewServer(p, opts...)
}

// NewScoringClient returns a client for a scoring service base URL.
func NewScoringClient(baseURL string) *ScoringClient { return serve.NewClient(baseURL) }

// NewUnloadedScoringServer returns a scoring server with no model yet;
// it answers 503 until a ModelReloader (or SetActive) installs one.
func NewUnloadedScoringServer(opts ...ScoringOption) (*ScoringServer, error) {
	return serve.NewUnloadedServer(opts...)
}

// OpenModelRegistry opens (creating if needed) a versioned model store
// rooted at dir.
func OpenModelRegistry(dir string) (*ModelRegistry, error) { return registry.Open(dir) }

// NewModelReloader wires a ScoringServer to a ModelRegistry, polling every
// interval (> 0): Sync once before serving, then Run in a goroutine for
// hot reload.
func NewModelReloader(reg *ModelRegistry, srv *ScoringServer, interval time.Duration) (*ModelReloader, error) {
	return serve.NewReloader(reg, srv, interval, nil)
}

// OptimalAllocation is TASQ's Figure-1 policy, usable in
// PlanConfig.Policy.
const OptimalAllocation = plan.PolicyOptimal

// Scheduling strategies, usable in PlanConfig.Strategy.
const (
	// FCFSStrategy admits jobs strictly in arrival order.
	FCFSStrategy = plan.StrategyFCFS
	// BackfillStrategy packs later jobs into pool gaps, deadline-first,
	// falling back to FCFS whenever packing would regress a feasible
	// deadline or the makespan.
	BackfillStrategy = plan.StrategyBackfill
	// RetryStrategy grants a sub-peak first slice and re-runs simulated
	// overruns at peak, accounting both attempts.
	RetryStrategy = plan.StrategyRetry
)

// NewQuotaTokenPool returns a token ledger of the given capacity with
// per-tenant concurrent-hold caps.
func NewQuotaTokenPool(capacity int, quota TenantQuota) (*TokenPool, error) {
	return plan.NewPoolQuota(capacity, quota)
}

// BuildPlan allocates a batch of jobs against a shared token pool and
// simulates the resulting FCFS schedule — the in-process form of the
// scoring service's POST /v1/plan.
func BuildPlan(specs []PlanJobSpec, cfg PlanConfig) (*ClusterPlan, error) {
	return plan.Build(specs, cfg)
}

// ParsePlanStrategy parses a scheduling-strategy name ("fcfs",
// "backfill" or "retry", case- and whitespace-insensitive); the empty
// string selects FCFSStrategy.
func ParsePlanStrategy(s string) (PlanStrategy, error) { return plan.ParseStrategy(s) }

// MedianAPE returns the median absolute percentage error (as a fraction)
// between predictions and ground truth.
func MedianAPE(pred, truth []float64) float64 { return stats.MedianAPE(pred, truth) }

// Spark SQL adaptation (§2.3 of the paper: applicability to other
// platforms, in the style of the companion AutoExecutor work).
type (
	// SparkPlatform describes a Spark deployment: executors with several
	// task slots each, plus a fixed fleet startup cost.
	SparkPlatform = sparkadapt.Platform
	// SparkModel predicts query run time per executor count and fits
	// scaled-Amdahl curves R(E) = S + P/E.
	SparkModel = sparkadapt.Model
)

// TrainSparkModel fits the Spark SQL adaptation on historical records.
func TrainSparkModel(recs []*Record, platform SparkPlatform) (*SparkModel, error) {
	return sparkadapt.Train(recs, platform)
}
