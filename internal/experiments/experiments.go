// Package experiments contains one harness per table and figure of the
// TASQ paper's evaluation (§5), plus the motivating figures of §1–§4. Each
// harness returns a structured result with a Render method that prints the
// same rows or series the paper reports; cmd/experiments runs them all and
// bench_test.go wraps each in a benchmark.
//
// The harnesses share a Suite: a synthetic workload ingested into the job
// repository, a trained model pipeline, a §5.1 job selection and a §5.1
// flighting dataset — the same artifacts the paper builds once and reuses
// across its evaluation.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/selection"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// SuiteConfig sizes the shared experiment artifacts.
type SuiteConfig struct {
	Seed      int64
	TrainJobs int
	TestJobs  int
	// FlightSample is the §5.1 selection size (the paper selects 200).
	FlightSample int
	// Trainer configures the model pipeline; the LF2 configuration is the
	// paper's preferred operating point.
	Trainer trainer.Config
	// Workload configures synthesis; zero takes workload defaults.
	Workload workload.Config
	// Selection configures the §5.1 procedure.
	Selection selection.Config
	// Flight configures the §5.1 flighting protocol.
	Flight flight.Config
	// Workers bounds the goroutines used by suite construction (ingest,
	// training, flighting) and by RunAll's experiment fan-out; ≤ 0 means
	// runtime.NumCPU, 1 the serial path. NewSuite sets the trainer's and
	// the flight's counts to it. Results are identical at any worker count
	// (aside from Table 7's wall-clock timings).
	Workers int
}

// SmallConfig is a fast configuration for tests and benchmarks.
func SmallConfig(seed int64) SuiteConfig {
	tc := trainer.DefaultConfig(seed)
	tc.XGB.NumTrees = 50
	tc.NN.Epochs = 60
	tc.GNN.Epochs = 6
	wc := workload.DefaultConfig(seed)
	wc.SizeScale = 0.3
	sc := selection.DefaultConfig(seed)
	sc.SampleSize = 48
	return SuiteConfig{
		Seed:         seed,
		TrainJobs:    320,
		TestJobs:     160,
		FlightSample: 48,
		Trainer:      tc,
		Workload:     wc,
		Selection:    sc,
		Flight:       flight.DefaultConfig(seed),
	}
}

// FullConfig approaches the paper's scale within laptop budgets.
func FullConfig(seed int64) SuiteConfig {
	cfg := SmallConfig(seed)
	cfg.TrainJobs = 2000
	cfg.TestJobs = 800
	cfg.FlightSample = 200
	cfg.Selection.SampleSize = 200
	cfg.Workload.SizeScale = 1.0
	cfg.Trainer.XGB.NumTrees = 120
	cfg.Trainer.NN.Epochs = 150
	cfg.Trainer.GNN.Epochs = 20
	return cfg
}

// Suite holds the shared artifacts.
type Suite struct {
	Config    SuiteConfig
	Executor  *scopesim.Executor
	Train     []*jobrepo.Record
	Test      []*jobrepo.Record
	Pipeline  *trainer.Pipeline
	Selection *selection.Result
	Flights   *flight.Dataset
	// BuildDuration records how long suite construction took.
	BuildDuration time.Duration

	// lossPipelines caches per-loss pipeline variants for Tables 4–6;
	// lossMu guards it and lossSlots, which single-flights each loss's
	// training so a parallel RunAll never trains the same variant twice.
	lossMu        sync.Mutex
	lossPipelines map[trainer.LossKind]*trainer.Pipeline
	lossSlots     map[trainer.LossKind]*lossSlot
}

// lossSlot trains one loss variant exactly once.
type lossSlot struct {
	once sync.Once
	p    *trainer.Pipeline
	err  error
}

// newRand returns a seeded source for timing clones.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewSuite generates the workload (day 1 = train, day 2 = test, as §5),
// ingests telemetry, trains the pipeline, runs job selection over the test
// day and flights the selected jobs.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	start := time.Now()
	if cfg.TrainJobs < 10 || cfg.TestJobs < 10 {
		return nil, fmt.Errorf("experiments: suite needs at least 10 train and test jobs, got %d/%d", cfg.TrainJobs, cfg.TestJobs)
	}
	// One Workers knob drives every stage.
	cfg.Trainer.Workers = cfg.Workers
	cfg.Flight.Workers = cfg.Workers
	s := &Suite{Config: cfg, Executor: &scopesim.Executor{}}

	gen := workload.New(cfg.Workload)
	repo := jobrepo.New()
	jobs := gen.Workload(cfg.TrainJobs + cfg.TestJobs)
	// Anonymize, as the paper does before training.
	for i, j := range jobs {
		j.Anonymize(i)
	}
	if err := repo.IngestParallel(jobs, s.Executor, cfg.Workers); err != nil {
		return nil, err
	}
	all := repo.All()
	s.Train = all[:cfg.TrainJobs]
	s.Test = all[cfg.TrainJobs:]

	p, err := trainer.Train(s.Train, cfg.Trainer)
	if err != nil {
		return nil, err
	}
	s.Pipeline = p

	// §5.1: pre-select a constrained pool from the test day (token range
	// constraint), then stratified selection against the full population.
	pool := poolOf(s.Test)
	sel, err := selection.Select(all, pool, cfg.Selection)
	if err != nil {
		return nil, fmt.Errorf("experiments: job selection: %w", err)
	}
	s.Selection = sel

	capped := sel.Selected
	if cfg.FlightSample > 0 && len(capped) > cfg.FlightSample {
		capped = capped[:cfg.FlightSample]
	}
	ds, err := flight.Execute(capped, s.Executor, cfg.Flight)
	if err != nil {
		return nil, fmt.Errorf("experiments: flighting: %w", err)
	}
	s.Flights = ds

	s.BuildDuration = time.Since(start)
	return s, nil
}

// poolOf applies the §5.1 step-1 filter: a token-range constraint that
// skews the pool relative to the population, exactly the situation the
// stratified selection corrects.
func poolOf(recs []*jobrepo.Record) []*jobrepo.Record {
	var pool []*jobrepo.Record
	for _, rec := range recs {
		if rec.ObservedTokens >= 25 && rec.ObservedTokens <= 1000 {
			pool = append(pool, rec)
		}
	}
	if len(pool) < 10 {
		return recs // degenerate fallback for tiny suites
	}
	return pool
}
