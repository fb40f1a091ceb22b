package main

// The bench model and the seeded inputs. The population the model is
// trained on is a constant of the benchmark: a different population moves
// request sizes by ±5%, training time by ±10% and the held-out error by
// ±30%, which would drown every bound. -seed drives what is sampled from
// and generated around that population (README, "What the seed drives").

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/serve"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

// populationSeed fixes the bench population and the bench model.
const populationSeed = 1

// sizes are the input dimensions; the tests shrink them.
type sizes struct {
	population, train       int // jobs ingested; the first train of them are trained on
	trees, nnEpochs, gnnEps int
	recurringPool           int // instances of the population's templates
	recurring               int // score_recurring's working set
	adhoc                   int // score_adhoc's job pool (× the four predictors)
	// adhocProbes is how many never-timed jobs a score_adhoc set-up cycle
	// scores under every predictor: with 64, the same request count as
	// score_recurring's warm pass.
	adhocProbes        int
	batches, batchJobs int // plan_local
	capacity           int // plan_local's token pool
	layerRequests      int // traced sample sizes
	layerPlanCycles    int
	layerPlanHTTP      int
	layerReps          int
	// handlerPartsTol is how far the handler's parts, replayed one by one,
	// may sum from the handler replayed whole. The tests set none: medians
	// over a dozen requests do not add up.
	handlerPartsTol float64
}

var fullSizes = sizes{
	population: 512, train: 256, trees: 60, nnEpochs: 40, gnnEps: 5,
	recurringPool: 2000, recurring: 256, adhoc: 4096, adhocProbes: 64,
	batches: 16, batchJobs: 1000, capacity: 2000,
	layerRequests: 2000, layerPlanCycles: 16, layerPlanHTTP: 6, layerReps: 3, handlerPartsTol: 0.10,
}

// adhocModels are the predictors score_adhoc names, so that every request
// runs one of them: the four the paper trains.
var adhocModels = []string{trainer.ModelNN, trainer.ModelGNN, trainer.ModelXGBPL, trainer.ModelXGBSS}

func trainConfig(sz sizes) trainer.Config {
	cfg := trainer.DefaultConfig(populationSeed)
	cfg.XGB.NumTrees = sz.trees
	cfg.NN.Epochs = sz.nnEpochs
	cfg.GNN.Epochs = sz.gnnEps
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// population synthesises the jobs the bench model is trained and
// evaluated on.
func population(sz sizes) []*scopesim.Job {
	return workload.New(workload.TestConfig(populationSeed)).Workload(sz.population)
}

// pipelineRun is one pass of the offline pipeline over the population:
// ingest through the ground-truth executor, train on the first half,
// evaluate on the held-out half.
func pipelineRun(jobs []*scopesim.Job, sz sizes) (*trainer.Pipeline, []*jobrepo.Record, []trainer.ModelEval, error) {
	repo := jobrepo.New()
	if err := repo.IngestParallel(jobs, &scopesim.Executor{}, runtime.NumCPU()); err != nil {
		return nil, nil, nil, err
	}
	recs := repo.All()
	p, err := trainer.Train(recs[:sz.train], trainConfig(sz))
	if err != nil {
		return nil, nil, nil, err
	}
	evals, err := p.EvaluateHistorical(recs[sz.train:])
	return p, recs, evals, err
}

// nnMAPEPct is runtime_mape_pct: the NN's median absolute run-time error
// on the held-out jobs.
func nnMAPEPct(evals []trainer.ModelEval) (float64, error) {
	for _, e := range evals {
		if e.Model == trainer.ModelNN {
			return e.RuntimeMedianAE * 100, nil
		}
	}
	return 0, fmt.Errorf("bench: evaluation has no %s row", trainer.ModelNN)
}

// fixture is the trained bench model plus what every workload derives
// from it.
type fixture struct {
	sz        sizes
	pipeline  *trainer.Pipeline
	heldOut   []*jobrepo.Record
	mapePct   float64
	modelPath string
}

// buildFixture trains the bench model and writes it where tasqd loads it.
func buildFixture(sz sizes, outDir string) (*fixture, error) {
	p, recs, evals, err := pipelineRun(population(sz), sz)
	if err != nil {
		return nil, err
	}
	f := &fixture{sz: sz, pipeline: p, heldOut: recs[sz.train:], modelPath: filepath.Join(outDir, "model.gob")}
	if f.mapePct, err = nnMAPEPct(evals); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return f, trainer.SavePipelineFile(p, f.modelPath)
}

// heldOutJobs are the jobs the workloads other than plan_local price
// saved_vs_peak_pct on.
func heldOutJobs(heldOut []*jobrepo.Record) []*scopesim.Job {
	jobs := make([]*scopesim.Job, len(heldOut))
	for i, rec := range heldOut {
		jobs[i] = rec.Job
	}
	return jobs
}

// oracle is an in-process server over the model file tasqd serves, so
// that expected answers come from the same bytes.
func (f *fixture) oracle() (*serve.Server, error) {
	p, err := trainer.LoadPipelineFile(f.modelPath)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(p)
}

// recurringPool instantiates the population's own templates: the jobs a
// recurring pipeline submits day after day.
func recurringPool(sz sizes) []*scopesim.Job {
	cfg := workload.TestConfig(populationSeed)
	cfg.AdHocFraction = 0
	return workload.New(cfg).Workload(sz.recurringPool)
}

// sampleRecurring draws n jobs from pool, the same number from each
// template for every seed: instances of one template share their operator
// DAG, so request bytes and decode work stay level while the instances,
// and so the cache keys, change with the seed.
func sampleRecurring(pool []*scopesim.Job, n int, rng *rand.Rand) []*scopesim.Job {
	byTemplate := map[string][]*scopesim.Job{}
	var names []string
	for _, j := range pool {
		if _, ok := byTemplate[j.Template]; !ok {
			names = append(names, j.Template)
		}
		byTemplate[j.Template] = append(byTemplate[j.Template], j)
	}
	sort.Strings(names)
	// Shares follow the pool's template mix; the remainder goes round the
	// templates in name order.
	takes, left := make([]int, len(names)), n
	for k, name := range names {
		takes[k] = n * len(byTemplate[name]) / len(pool)
		left -= takes[k]
	}
	for k := 0; left > 0; k, left = (k+1)%len(names), left-1 {
		takes[k]++
	}
	var out []*scopesim.Job
	for k, name := range names {
		members := byTemplate[name]
		rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		out = append(out, members[:min(takes[k], len(members))]...)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// adhocPool generates n never-seen jobs, each a fresh random plan.
func adhocPool(n int, seed int64) []*scopesim.Job {
	cfg := workload.TestConfig(seed)
	cfg.AdHocFraction = 1
	return workload.New(cfg).Workload(n)
}

// jobPrefix pre-encodes `{"job":<job>` so a request body is that plus a
// per-model suffix, byte for byte what json.Marshal(ScoreRequest) gives.
func jobPrefix(job *scopesim.Job) ([]byte, error) {
	b, err := json.Marshal(&serve.ScoreRequest{Job: job})
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

func modelSuffix(model string) []byte {
	if model == "" {
		return []byte("}")
	}
	name, _ := json.Marshal(model)
	return []byte(`,"model":` + string(name) + "}")
}

// planBatches builds plan_local's requests: batches dealt from seeded
// shuffles of the recurring pool, contended arrivals (a mean of one job a
// second against multi-minute jobs keeps a backlog), four tenants under
// quotas that bind when a tenant's jobs cluster, and a deadline on every
// fourth job. Dealing without replacement gives every seed the same jobs
// overall (each pool job 8 times in 16 batches of 1000 from 2000), in
// other batches, orders and tenants: token-seconds are heavy-tailed, and
// sampled with replacement the work and the saving moved by a third from
// seed to seed. One request per (batch, strategy), never mutated, so
// workers can share them.
func planBatches(sz sizes, pool []*scopesim.Job, rng *rand.Rand) [][]*serve.PlanRequest {
	var deck []int
	deal := func() *scopesim.Job {
		if len(deck) == 0 {
			deck = rng.Perm(len(pool))
		}
		j := pool[deck[0]]
		deck = deck[1:]
		return j
	}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}
	quotas := map[string]int{}
	for _, t := range tenants {
		quotas[t] = sz.capacity * 2 / 5
	}
	out := make([][]*serve.PlanRequest, sz.batches)
	for b := range out {
		base := serve.PlanRequest{
			CapacityTokens:  sz.capacity,
			Policy:          "optimal",
			Jobs:            make([]*scopesim.Job, sz.batchJobs),
			ArrivalSeconds:  make([]float64, sz.batchJobs),
			DeadlineSeconds: make([]int, sz.batchJobs),
			Tenants:         make([]string, sz.batchJobs),
			Quotas:          quotas,
		}
		arrival := 0
		for i := range base.Jobs {
			base.Jobs[i] = deal()
			base.ArrivalSeconds[i] = float64(arrival)
			base.Tenants[i] = tenants[rng.Intn(len(tenants))]
			if i%4 == 0 {
				base.DeadlineSeconds[i] = arrival + 512 + rng.Intn(8192)
			}
			arrival += rng.Intn(3)
		}
		for _, strategy := range planStrategies {
			req := base
			req.Strategy = strategy
			out[b] = append(out[b], &req)
		}
	}
	return out
}

var planStrategies = []string{"fcfs", "backfill", "retry"}

// savedVsPeakPct plans jobs once (Optimal policy, FCFS, one batch at
// second 0) and returns the share of the Peak baseline's token-seconds the
// plan saves: the paper's headline, for this model on these jobs.
func savedVsPeakPct(srv *serve.Server, jobs []*scopesim.Job, capacity int) (float64, error) {
	resp, err := srv.PlanLocal(&serve.PlanRequest{Jobs: jobs, CapacityTokens: capacity, Policy: "optimal"})
	if err != nil {
		return 0, err
	}
	if resp.PeakBaselineTokenSeconds <= 0 {
		return 0, fmt.Errorf("bench: peak baseline of %d token-seconds", resp.PeakBaselineTokenSeconds)
	}
	return 100 * float64(resp.SavedTokenSeconds) / float64(resp.PeakBaselineTokenSeconds), nil
}
