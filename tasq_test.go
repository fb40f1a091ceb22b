package tasq_test

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tasq"
	"tasq/internal/autopilot"
	"tasq/internal/autotoken"
	"tasq/internal/drift"
	"tasq/internal/ml/gbt"
	"tasq/internal/ml/linalg"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
)

// TestPublicAPIEndToEnd drives the whole system through the façade: build
// a workload, ingest telemetry, train, score over HTTP, pick an optimal
// allocation, flight a selection and validate the simulator.
func TestPublicAPIEndToEnd(t *testing.T) {
	gen := tasq.NewWorkloadGenerator(tasq.SmallWorkloadConfig(99))
	repo := tasq.NewRepository()
	ex := tasq.NewExecutor()
	if err := repo.Ingest(gen.Workload(120), ex); err != nil {
		t.Fatal(err)
	}

	tcfg := tasq.DefaultTrainConfig(99)
	tcfg.XGB.NumTrees = 20
	tcfg.NN.Epochs = 20
	tcfg.GNN.Epochs = 2
	pipe, err := tasq.TrainPipeline(repo.All(), tcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Score a fresh, never-seen job.
	newJob := gen.Job()
	curve, model, err := pipe.ScoreJob(newJob)
	if err != nil {
		t.Fatal(err)
	}
	if model == "" || !curve.NonIncreasing() {
		t.Fatalf("scored %q curve %+v", model, curve)
	}
	opt := curve.OptimalTokens(1, newJob.RequestedTokens, 0.01)
	if opt < 1 || opt > newJob.RequestedTokens {
		t.Fatalf("optimal tokens %d", opt)
	}

	// AREPAS on an observed skyline.
	rec := repo.All()[0]
	sim, err := tasq.SimulateSkyline(rec.Skyline, max(1, rec.ObservedTokens/2))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Area() != rec.Skyline.Area() {
		t.Fatal("area not preserved through façade")
	}

	// PCC fitting façade.
	fitted, err := tasq.FitPCC([]tasq.PCCSample{{Tokens: 10, Runtime: 100}, {Tokens: 20, Runtime: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if !fitted.NonIncreasing() {
		t.Fatalf("fit %+v", fitted)
	}

	// Selection + flighting façade.
	sel, err := tasq.SelectJobs(repo.All(), repo.All(), tasq.SelectionConfig{K: 4, SampleSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tasq.FlightJobs(sel.Selected, ex, tasq.DefaultFlightConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Jobs) == 0 {
		t.Fatal("no flighted jobs")
	}

	// HTTP scoring façade.
	srv, err := tasq.NewScoringServer(pipe)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := tasq.NewScoringClient(ts.URL)
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Score(&tasq.ScoreRequest{Job: newJob})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OptimalTokens < 1 {
		t.Fatalf("served optimal %d", resp.OptimalTokens)
	}

	// Stats façade.
	if got := tasq.MedianAPE([]float64{110}, []float64{100}); got != 0.1 {
		t.Fatalf("MedianAPE = %v", got)
	}
}

// TestPublicAPIPlanning exercises the cluster-planner façade: strategy
// parsing, quota-capped pools, and BuildPlan across all three
// scheduling strategies.
func TestPublicAPIPlanning(t *testing.T) {
	for name, want := range map[string]tasq.PlanStrategy{
		"":         tasq.FCFSStrategy,
		"Backfill": tasq.BackfillStrategy,
		" RETRY ":  tasq.RetryStrategy,
	} {
		got, err := tasq.ParsePlanStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParsePlanStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := tasq.ParsePlanStrategy("lifo"); err == nil {
		t.Fatal("ParsePlanStrategy accepted lifo")
	}

	quota := tasq.TenantQuota{"acme": 60}
	if _, err := tasq.NewQuotaTokenPool(100, quota); err != nil {
		t.Fatal(err)
	}

	specs := []tasq.PlanJobSpec{
		{ID: "j1", ArrivalSecond: 0, RequestedTokens: 80, PeakTokens: 120,
			Curve: tasq.PCC{A: -0.5, B: 400}, Tenant: "acme"},
		{ID: "j2", ArrivalSecond: 2, RequestedTokens: 50, PeakTokens: 90,
			Curve: tasq.PCC{A: -0.4, B: 300}, Tenant: "acme", DeadlineSecond: 4000},
	}
	var fcfsCost int
	for _, s := range []tasq.PlanStrategy{tasq.FCFSStrategy, tasq.BackfillStrategy, tasq.RetryStrategy} {
		p, err := tasq.BuildPlan(specs, tasq.PlanConfig{
			Capacity: 100, Policy: tasq.OptimalAllocation, Strategy: s, Quota: quota,
		})
		if err != nil {
			t.Fatalf("BuildPlan(%v): %v", s, err)
		}
		if len(p.Outcomes) != len(specs) || p.Stats.TotalTokenSeconds <= 0 {
			t.Fatalf("BuildPlan(%v) stats %+v", s, p.Stats)
		}
		for _, a := range p.Allocations {
			if a.Tokens > quota["acme"] {
				t.Fatalf("BuildPlan(%v): allocation %d exceeds acme quota", s, a.Tokens)
			}
		}
		switch s {
		case tasq.FCFSStrategy:
			fcfsCost = p.Stats.TotalTokenSeconds
		case tasq.BackfillStrategy:
			if p.Stats.TotalTokenSeconds > fcfsCost {
				t.Fatalf("backfill cost %d > fcfs %d", p.Stats.TotalTokenSeconds, fcfsCost)
			}
		case tasq.RetryStrategy:
			if p.Stats.TotalTokenSeconds < fcfsCost {
				t.Fatalf("retry cost %d < fcfs %d", p.Stats.TotalTokenSeconds, fcfsCost)
			}
		}
	}
}

// TestConstructorsRefuse holds the constructors that once coerced a
// meaningless setting to a default to refusing it instead, as NewServer
// does: every row must fail.
func TestConstructorsRefuse(t *testing.T) {
	reg, err := tasq.OpenModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tasq.NewUnloadedScoringServer()
	if err != nil {
		t.Fatal(err)
	}
	job := &scopesim.Job{ID: "j", RequestedTokens: 4, Stages: []scopesim.Stage{{ID: 0, Tasks: 4, TaskSeconds: 3}}}
	runNoisy := func(noise scopesim.Noise) error {
		_, err := tasq.NewExecutor().RunNoisy(job, 4, rand.New(rand.NewSource(1)), noise)
		return err
	}
	openWindow := func(capacity int) error {
		w, err := autopilot.OpenWindow(filepath.Join(t.TempDir(), "window.jsonl"), capacity)
		if err == nil {
			w.Close()
		}
		return err
	}
	repo := tasq.NewRepository()
	if err := repo.Ingest(tasq.NewWorkloadGenerator(tasq.SmallWorkloadConfig(5)).Workload(12), tasq.NewExecutor()); err != nil {
		t.Fatal(err)
	}
	recs := repo.All()
	boost := func(trees int) error {
		cfg := gbt.DefaultConfig()
		cfg.NumTrees = trees
		return second(gbt.Train(linalg.FromRows([][]float64{{1}, {2}, {3}}), []float64{1, 2, 3}, cfg))
	}
	train := func(mutate func(*tasq.TrainConfig)) error {
		cfg := tasq.DefaultTrainConfig(1)
		mutate(&cfg)
		return second(tasq.TrainPipeline(recs, cfg))
	}
	machine := func(mutate func(*autopilot.MachineConfig)) error {
		cfg := autopilot.DefaultMachineConfig()
		mutate(&cfg)
		return second(autopilot.NewMachine(cfg))
	}
	newAutopilot := func(mutate func(*autopilot.Config)) error {
		cfg := autopilot.DefaultConfig(1)
		mutate(&cfg)
		return second(autopilot.New(reg, nil, cfg))
	}
	spark := tasq.SparkPlatform{CoresPerExecutor: 4, StartupSeconds: -1}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"reloader interval 0", second(tasq.NewModelReloader(reg, srv, 0))},
		{"reloader interval -1s", second(tasq.NewModelReloader(reg, srv, -time.Second))},
		{"breaker threshold 0", second(serve.NewBreaker(0, time.Second))},
		{"breaker threshold -1", second(serve.NewBreaker(-1, time.Second))},
		{"breaker cooldown 0", second(serve.NewBreaker(2, 0))},
		{"breaker cooldown -1ms", second(serve.NewBreaker(2, -time.Millisecond))},
		{"window capacity 0", openWindow(0)},
		{"window capacity -5", openWindow(-5)},
		{"slowdown factor 0.5", runNoisy(scopesim.Noise{SlowdownProb: 1, SlowdownFactor: 0.5})},
		{"slowdown factor 0", runNoisy(scopesim.Noise{SlowdownProb: 0.04})},
		{"slowdown factor NaN", runNoisy(scopesim.Noise{SlowdownProb: 1, SlowdownFactor: math.NaN()})},
		{"gbt 0 trees", boost(0)},
		{"trainer 0 NN epochs", train(func(c *tasq.TrainConfig) { c.NN.Epochs = 0 })},
		{"trainer squared objective", train(func(c *tasq.TrainConfig) { c.XGB.Objective = gbt.Squared })},
		{"autotoken zero config", second(autotoken.Train(recs, autotoken.Config{}))},
		{"spark 0 cores", second(tasq.TrainSparkModel(recs, tasq.SparkPlatform{}))},
		{"spark startup -1s", second(spark.Run(tasq.NewExecutor(), job, 2))},
		{"detector alpha 1.5", second(drift.NewDetector(drift.Config{Alpha: 1.5, Threshold: 0.5, MinSamples: 16}))},
		{"series alpha NaN", second(drift.NewSeries(math.NaN()))},
		{"machine guard alpha 0", machine(func(c *autopilot.MachineConfig) { c.GuardAlpha = 0 })},
		{"autopilot queue cap 0", newAutopilot(func(c *autopilot.Config) { c.QueueCap = 0 })},
		{"autopilot zero train config", newAutopilot(func(c *autopilot.Config) { c.Train = tasq.TrainConfig{} })},
	} {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func second[T any](_ T, err error) error { return err }
