// Command tasq is the command-line entry point to the TASQ reproduction:
// it generates synthetic SCOPE-like workloads, trains and persists the
// model pipeline, evaluates it, runs AREPAS what-if simulations, performs
// the §5.1 job selection, and scores jobs for optimal token allocations.
//
// Usage:
//
//	tasq generate -n 1000 -seed 1 -out repo.jsonl [-scale 1.0]
//	tasq stats    -data repo.jsonl
//	tasq train    -data repo.jsonl -out model.gob [-loss LF2] [-skip-gnn]
//	              [-registry models/ -eval-data test.jsonl -notes "..."]
//	tasq evaluate -data test.jsonl -model model.gob
//	tasq simulate -data repo.jsonl -job <id> -tokens 40
//	tasq select   -data repo.jsonl -k 8 -sample 200 -seed 1
//	tasq flight   -data repo.jsonl -k 8 -sample 100 -seed 1
//	tasq score    -data repo.jsonl -model model.gob -job <id> [-threshold 0.01]
//	              [-predictor NN] [-policy GNN,NN]
//	tasq plan     -data repo.jsonl -model model.gob -capacity 400 [-n 100]
//	              [-alloc optimal] [-threshold 0.01] [-predictor NN] [-addr http://host:8080]
//	tasq registry <list|show|pin|unpin|gc> -dir models/ [-version N] [-keep N]
//
// With -registry, train publishes the model into the versioned model
// store that tasqd serves from (and hot-reloads); the registry
// subcommand manages the store's lifecycle: inspect manifests, pin the
// serving version while candidates shadow-score, and prune old versions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"tasq/internal/arepas"
	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/model"
	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/registry"
	"tasq/internal/scopesim"
	"tasq/internal/selection"
	"tasq/internal/serve"
	"tasq/internal/stats"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tasq:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "train":
		return cmdTrain(args[1:])
	case "evaluate":
		return cmdEvaluate(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "select":
		return cmdSelect(args[1:])
	case "flight":
		return cmdFlight(args[1:])
	case "score":
		return cmdScore(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	case "registry":
		return cmdRegistry(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tasq <generate|stats|train|evaluate|simulate|select|flight|score|plan|registry> [flags]
run "tasq <subcommand> -h" for flags`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	n := fs.Int("n", 1000, "number of jobs")
	seed := fs.Int64("seed", 1, "random seed")
	scale := fs.Float64("scale", 1.0, "workload size scale")
	out := fs.String("out", "repo.jsonl", "output JSONL path")
	workers := fs.Int("workers", 0, "worker goroutines for job execution (0 = all CPUs, 1 = serial; output is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := workload.DefaultConfig(*seed)
	cfg.SizeScale = *scale
	gen := workload.New(cfg)
	jobs := gen.Workload(*n)
	for i, j := range jobs {
		j.Anonymize(i)
	}
	repo := jobrepo.New()
	if err := repo.IngestParallel(jobs, &scopesim.Executor{}, *workers); err != nil {
		return err
	}
	if err := repo.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("generated %d jobs -> %s\n", repo.Len(), *out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	var rts, toks, peaks []float64
	var recurring int
	for _, rec := range repo.All() {
		rts = append(rts, float64(rec.RuntimeSeconds))
		toks = append(toks, float64(rec.ObservedTokens))
		peaks = append(peaks, float64(rec.Skyline.Peak()))
		if rec.Job.Template != "" {
			recurring++
		}
	}
	fmt.Printf("jobs: %d (%d recurring, %d ad-hoc)\n", repo.Len(), recurring, repo.Len()-recurring)
	fmt.Printf("run time (s): min %.0f median %.0f mean %.0f max %.0f\n",
		stats.Min(rts), stats.Median(rts), stats.Mean(rts), stats.Max(rts))
	fmt.Printf("requested tokens: median %.0f mean %.0f\n", stats.Median(toks), stats.Mean(toks))
	fmt.Printf("peak tokens used: min %.0f median %.0f mean %.0f max %.0f\n",
		stats.Min(peaks), stats.Median(peaks), stats.Mean(peaks), stats.Max(peaks))
	return nil
}

func parseLoss(s string) (trainer.LossKind, error) {
	switch s {
	case "LF1", "lf1":
		return trainer.LF1, nil
	case "LF2", "lf2", "":
		return trainer.LF2, nil
	case "LF3", "lf3":
		return trainer.LF3, nil
	default:
		return 0, fmt.Errorf("unknown loss %q (want LF1, LF2 or LF3)", s)
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "training repository JSONL")
	out := fs.String("out", "model.gob", "output model path")
	seed := fs.Int64("seed", 1, "random seed")
	lossName := fs.String("loss", "LF2", "NN/GNN loss: LF1, LF2 or LF3")
	skipGNN := fs.Bool("skip-gnn", false, "skip the (slow) GNN")
	def := trainer.DefaultConfig(0)
	nnEpochs := fs.Int("nn-epochs", def.NN.Epochs, "NN training epochs, at least 1")
	gnnEpochs := fs.Int("gnn-epochs", def.GNN.Epochs, "GNN training epochs, at least 1")
	registryDir := fs.String("registry", "", "also publish the model into this registry directory")
	evalData := fs.String("eval-data", "", "held-out JSONL evaluated into the published manifest (requires -registry)")
	notes := fs.String("notes", "", "free-form note recorded in the published manifest")
	workers := fs.Int("workers", 0, "worker goroutines for target building and augmentation (0 = all CPUs, 1 = serial; the trained model is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *registryDir == "" && (*evalData != "" || *notes != "") {
		return fmt.Errorf("-eval-data and -notes only apply when publishing with -registry")
	}
	if *nnEpochs < 1 {
		return fmt.Errorf("-nn-epochs %d: must be at least 1", *nnEpochs)
	}
	if *gnnEpochs < 1 {
		return fmt.Errorf("-gnn-epochs %d: must be at least 1", *gnnEpochs)
	}
	loss, err := parseLoss(*lossName)
	if err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	cfg := trainer.DefaultConfig(*seed)
	cfg.NN.Loss = loss
	cfg.GNN.Loss = loss
	cfg.SkipGNN = *skipGNN
	cfg.Workers = *workers
	cfg.NN.Epochs = *nnEpochs
	cfg.GNN.Epochs = *gnnEpochs
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		return err
	}
	if err := trainer.SavePipelineFile(p, *out); err != nil {
		return err
	}
	fmt.Printf("trained on %d jobs (loss %s) -> %s\n", repo.Len(), loss, *out)
	if p.NN != nil {
		fmt.Printf("NN parameters: %d\n", p.NN.NumParams())
	}
	if p.GNN != nil {
		fmt.Printf("GNN parameters: %d\n", p.GNN.NumParams())
	}
	if *registryDir != "" {
		version, err := publishTrained(p, cfg, repo.Len(), *registryDir, *evalData, *notes)
		if err != nil {
			return err
		}
		fmt.Printf("published v%d -> %s\n", version, *registryDir)
	}
	return nil
}

// publishTrained pushes a trained pipeline into the model registry, with
// an optional held-out evaluation folded into the manifest so promotion
// can be judged without reloading the model.
func publishTrained(p *trainer.Pipeline, cfg trainer.Config, jobs int, dir, evalData, notes string) (int, error) {
	reg, err := registry.Open(dir)
	if err != nil {
		return 0, err
	}
	m := registry.Manifest{
		Train: registry.SummarizeTraining(cfg, jobs),
		Notes: notes,
	}
	if evalData != "" {
		test, err := jobrepo.LoadFile(evalData)
		if err != nil {
			return 0, err
		}
		evals, err := p.EvaluateHistorical(test.All())
		if err != nil {
			return 0, err
		}
		m.EvalMetrics = make(map[string]float64, len(evals))
		for _, e := range evals {
			m.EvalMetrics["runtime_median_ae_"+metricKey(e.Model)] = e.RuntimeMedianAE
		}
	}
	return reg.PublishPipeline(p, m)
}

// metricKey flattens a model name ("XGBoost SS") into a metric-safe
// suffix ("xgboost_ss").
func metricKey(model string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, model)
}

// cmdRegistry manages the model store: list and show manifests, pin the
// serving version, and prune old versions.
func cmdRegistry(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tasq registry <list|show|pin|unpin|gc> [flags]")
	}
	action := args[0]
	// The action is checked before the registry opens, since opening
	// creates the directory.
	switch action {
	case "list", "show", "pin", "unpin", "gc":
	default:
		return fmt.Errorf("unknown registry action %q (want list, show, pin, unpin or gc)", action)
	}
	fs := flag.NewFlagSet("registry "+action, flag.ContinueOnError)
	dir := fs.String("dir", "models", "registry directory")
	version := fs.Int("version", 0, "target version (show, pin)")
	keep := fs.Int("keep", 5, "versions to retain (gc)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	reg, err := registry.Open(*dir)
	if err != nil {
		return err
	}
	switch action {
	case "list":
		ms, err := reg.List()
		if err != nil {
			return err
		}
		pinned, err := reg.Pinned()
		if err != nil {
			return err
		}
		if len(ms) == 0 {
			fmt.Println("registry is empty")
			return nil
		}
		fmt.Printf("%-8s %-20s %-10s %-6s %-8s %s\n", "VERSION", "CREATED", "SIZE", "LOSS", "JOBS", "NOTES")
		for _, m := range ms {
			marker := ""
			if m.Version == pinned {
				marker = " (pinned)"
			}
			fmt.Printf("v%04d%-3s %-20s %-10d %-6s %-8d %s\n",
				m.Version, marker, m.CreatedAt.Format("2006-01-02 15:04:05"),
				m.SizeBytes, m.Train.Loss, m.Train.Jobs, m.Notes)
		}
		return nil
	case "show":
		if *version == 0 {
			v, err := reg.Latest()
			if err != nil {
				return err
			}
			*version = v
		}
		m, err := reg.Manifest(*version)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	case "pin":
		if *version == 0 {
			return fmt.Errorf("pin requires -version")
		}
		if err := reg.Pin(*version); err != nil {
			return err
		}
		fmt.Printf("pinned v%d\n", *version)
		return nil
	case "unpin":
		if err := reg.Unpin(); err != nil {
			return err
		}
		fmt.Println("unpinned")
		return nil
	default: // "gc"
		removed, err := reg.GC(*keep)
		if err != nil {
			return err
		}
		fmt.Printf("removed %d version(s) %v, kept %d\n", len(removed), removed, *keep)
		return nil
	}
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	data := fs.String("data", "test.jsonl", "test repository JSONL")
	model := fs.String("model", "model.gob", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	p, err := trainer.LoadPipelineFile(*model)
	if err != nil {
		return err
	}
	evals, err := p.EvaluateHistorical(repo.All())
	if err != nil {
		return err
	}
	trainer.SortEvals(evals)
	fmt.Printf("%-12s %-24s %-20s %s\n", "Model", "Pattern (Non-Increase)", "MAE (Curve Params)", "Median AE (Run Time)")
	for _, e := range evals {
		params := "NA"
		if !math.IsNaN(e.ParamMAE) {
			params = fmt.Sprintf("%.3f", e.ParamMAE)
		}
		fmt.Printf("%-12s %-24s %-20s %.0f%%\n", e.Model, fmt.Sprintf("%.0f%%", e.Pattern*100), params, e.RuntimeMedianAE*100)
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL")
	jobID := fs.String("job", "", "job ID (defaults to the first job)")
	tokens := fs.Int("tokens", 0, "token allocation to simulate (default 50% of observed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	rec := repo.Get(*jobID)
	if rec == nil {
		if *jobID != "" {
			return fmt.Errorf("job %q not found", *jobID)
		}
		if repo.Len() == 0 {
			return fmt.Errorf("repository is empty")
		}
		rec = repo.All()[0]
	}
	tok := *tokens
	if tok <= 0 {
		tok = rec.ObservedTokens / 2
		if tok < 1 {
			tok = 1
		}
	}
	sim, err := arepas.Simulate(rec.Skyline, tok)
	if err != nil {
		return err
	}
	fmt.Printf("job %s: observed %ds at %d tokens (peak %d, area %d tok-s)\n",
		rec.Job.ID, rec.RuntimeSeconds, rec.ObservedTokens, rec.Skyline.Peak(), rec.Skyline.Area())
	fmt.Printf("AREPAS at %d tokens: %ds (%.1f%% slower), area %d tok-s\n",
		tok, sim.Runtime(), (float64(sim.Runtime())/float64(rec.RuntimeSeconds)-1)*100, sim.Area())
	return nil
}

func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL")
	k := fs.Int("k", 8, "number of k-means clusters")
	sample := fs.Int("sample", 200, "target subset size")
	seed := fs.Int64("seed", 1, "random seed")
	minTok := fs.Int("min-tokens", 0, "pool constraint: minimum observed tokens")
	maxTok := fs.Int("max-tokens", 0, "pool constraint: maximum observed tokens")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	pool := repo.Query(jobrepo.Filter{MinTokens: *minTok, MaxTokens: *maxTok})
	res, err := selection.Select(repo.All(), pool, selection.Config{K: *k, SampleSize: *sample, MaxPerTemplate: 3, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("selected %d of %d pool jobs (population %d)\n", len(res.Selected), len(pool), repo.Len())
	fmt.Printf("KS statistic: pool %.3f -> selected %.3f\n", res.KSBefore, res.KSAfter)
	for c := range res.PopulationProportions {
		fmt.Printf("cluster %d: population %5.1f%%  pool %5.1f%%  selected %5.1f%%\n",
			c, res.PopulationProportions[c]*100, res.PoolProportions[c]*100, res.SelectedProportions[c]*100)
	}
	return nil
}

// cmdFlight runs the §5.1 protocol end to end: stratified job selection,
// redundant noisy re-execution at several token counts with anomaly
// filtering, and the Table 3 AREPAS validation.
func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL")
	k := fs.Int("k", 8, "number of k-means clusters for selection")
	sample := fs.Int("sample", 100, "jobs to select and flight")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	sel, err := selection.Select(repo.All(), repo.All(),
		selection.Config{K: *k, SampleSize: *sample, MaxPerTemplate: 3, Seed: *seed})
	if err != nil {
		return err
	}
	ds, err := flight.Execute(sel.Selected, &scopesim.Executor{}, flight.DefaultConfig(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("flighted %d jobs (%d runs); rejected: %d isolated, %d overuse, %d non-monotone\n",
		len(ds.Jobs), ds.TotalRuns, ds.RejectedIsolated, ds.RejectedOveruse, ds.RejectedNonMonotone)
	rep, err := flight.ValidateArepas(ds.Jobs)
	if err != nil {
		return err
	}
	fmt.Printf("AREPAS vs flighted ground truth over %d comparisons: MedianAPE %.1f%%, MeanAPE %.1f%%\n",
		rep.Comparisons, rep.MedianAPE*100, rep.MeanAPE*100)
	full := ds.FullyMatched(0.3)
	fullRep, err := flight.ValidateArepas(full)
	if err != nil {
		return err
	}
	fmt.Printf("fully-matched subset (%d jobs): MedianAPE %.1f%%, MeanAPE %.1f%%\n",
		len(full), fullRep.MedianAPE*100, fullRep.MeanAPE*100)
	return nil
}

// cmdScore answers for one repository job what tasqd's /v1/score would:
// the request goes through the serving path in process (Server.ScoreLocal),
// with a what-if sweep at 25/50/75/100% of the job's requested tokens.
func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL")
	modelPath := fs.String("model", "model.gob", "trained model path")
	jobID := fs.String("job", "", "job ID (defaults to the first job)")
	threshold := fs.Float64("threshold", pcc.DefaultThreshold, "optimal-allocation threshold (marginal gain per token)")
	predictor := fs.String("predictor", "", "score with this predictor (e.g. NN, 'XGBoost PL', AutoToken); empty follows the fallback policy")
	policyFlag := fs.String("policy", "", "comma-separated predictor fallback chain (e.g. 'GNN,NN'); ignored when -predictor is set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy := model.ParsePolicy(*policyFlag)
	if err := policy.Check((&trainer.Pipeline{}).Predictors()); err != nil {
		return fmt.Errorf("-policy: %w", err)
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	p, err := trainer.LoadPipelineFile(*modelPath)
	if err != nil {
		return err
	}
	p.ScorePolicy = policy
	srv, err := serve.NewServer(p)
	if err != nil {
		return err
	}
	rec := repo.Get(*jobID)
	if rec == nil {
		if *jobID != "" {
			return fmt.Errorf("job %q not found", *jobID)
		}
		if repo.Len() == 0 {
			return fmt.Errorf("repository is empty")
		}
		rec = repo.All()[0]
	}
	requested := rec.Job.RequestedTokens
	req := &serve.ScoreRequest{Job: rec.Job, Model: *predictor, Threshold: *threshold}
	for _, f := range []float64{0.25, 0.5, 0.75, 1.0} {
		req.CandidateTokens = append(req.CandidateTokens, max(int(f*float64(requested)), 1))
	}
	resp, err := srv.ScoreLocal(req)
	if err != nil {
		return err
	}
	defer resp.Release()
	fmt.Printf("job %s scored by %s: %s (a=%v, b=%v)\n",
		rec.Job.ID, resp.Model, resp.CurveValue(), resp.Curve.A, resp.Curve.B)
	fmt.Printf("requested %d tokens; optimal %d tokens (threshold %.2f%%/token)\n",
		requested, resp.OptimalTokens, *threshold*100)
	fmt.Println("what-if run times:")
	for _, pt := range resp.Predictions {
		fmt.Printf("  %4d tokens -> %7.1fs\n", pt.Tokens, pt.RuntimeSeconds)
	}
	return nil
}

// cmdPlan allocates a batch of repository jobs against a shared token
// pool: scoring each job's PCC, applying the chosen allocation policy,
// and simulating the chosen scheduling strategy (-strategy fcfs,
// backfill or retry). With -addr the batch is posted to a live tasqd's
// /v1/plan; otherwise planning runs in process from -model.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	data := fs.String("data", "repo.jsonl", "repository JSONL")
	modelPath := fs.String("model", "model.gob", "trained model path (local mode)")
	addr := fs.String("addr", "", "base URL of a running tasqd; empty plans locally from -model")
	n := fs.Int("n", 0, "jobs to plan (0 = the whole repository)")
	capacity := fs.Int("capacity", 400, "pool capacity in guaranteed tokens")
	alloc := fs.String("alloc", "optimal", "allocation policy: default, peak, adaptive-peak or optimal")
	strategy := fs.String("strategy", "fcfs", "scheduling strategy: fcfs, backfill or retry")
	threshold := fs.Float64("threshold", pcc.DefaultThreshold, "optimal-allocation threshold (marginal gain per token)")
	predictor := fs.String("predictor", "", "score with this predictor (e.g. NN, AutoToken); empty follows the fallback policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := jobrepo.LoadFile(*data)
	if err != nil {
		return err
	}
	recs := repo.All()
	if len(recs) == 0 {
		return fmt.Errorf("repository is empty")
	}
	if *n > 0 && *n < len(recs) {
		recs = recs[:*n]
	}

	req := &serve.PlanRequest{
		CapacityTokens: *capacity,
		Policy:         *alloc,
		Strategy:       *strategy,
		Model:          *predictor,
		Threshold:      *threshold,
	}
	for _, rec := range recs {
		req.Jobs = append(req.Jobs, rec.Job)
	}
	var resp *serve.PlanResponse
	if *addr != "" {
		resp, err = serve.NewClient(*addr).Plan(context.Background(), req)
	} else {
		resp, err = planLocal(*modelPath, req)
	}
	if err != nil {
		return err
	}
	printPlan(resp)
	return nil
}

// planLocal answers the request a daemon would have been sent with the
// planner that daemon runs, over the model file. A daemon caps the jobs of
// one request; a local plan is as large as the repository it was given.
func planLocal(modelPath string, req *serve.PlanRequest) (*serve.PlanResponse, error) {
	p, err := trainer.LoadPipelineFile(modelPath)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(p, serve.WithMaxPlanJobs(len(req.Jobs)))
	if err != nil {
		return nil, err
	}
	return srv.PlanLocal(req)
}

// printPlan renders a plan: the first jobs row by row, then the
// cluster-level cost and queueing summary.
func printPlan(resp *serve.PlanResponse) {
	how := resp.Strategy
	if how == "" {
		how = "fcfs"
	}
	if resp.FellBackToFCFS {
		how += " (fell back to fcfs)"
	}
	fmt.Printf("planned %d jobs under %s / %s (pool %d tokens)\n",
		len(resp.Jobs), resp.Policy, how, resp.CapacityTokens)
	const maxRows = 10
	fmt.Printf("%-14s %-14s %7s %9s %7s %6s %7s\n", "JOB", "MODEL", "TOKENS", "RUNTIME_S", "START", "WAIT", "END")
	for i, j := range resp.Jobs {
		if i == maxRows {
			fmt.Printf("… %d more jobs\n", len(resp.Jobs)-maxRows)
			break
		}
		fmt.Printf("%-14s %-14s %7d %9d %7d %6d %7d\n",
			j.ID, j.Model, j.Tokens, j.PredictedRuntimeSeconds, j.StartSecond, j.WaitSeconds, j.EndSecond)
	}
	fmt.Printf("makespan %ds, queue wait mean %.1fs max %ds\n",
		resp.MakespanSeconds, resp.MeanWaitSeconds, resp.MaxWaitSeconds)
	savedPct := 100 * plan.SavedVsPeak(int64(resp.TotalTokenSeconds), int64(resp.PeakBaselineTokenSeconds))
	fmt.Printf("cost %d token-seconds vs %d peak baseline: saved %d (%.1f%%)\n",
		resp.TotalTokenSeconds, resp.PeakBaselineTokenSeconds, resp.SavedTokenSeconds, savedPct)
	if resp.Retries > 0 {
		fmt.Printf("retries: %d jobs overran their first slice, wasting %d token-seconds\n",
			resp.Retries, resp.RetryWasteTokenSeconds)
	}
	if resp.DeadlineViolations > 0 {
		fmt.Printf("deadline violations: %d\n", resp.DeadlineViolations)
	}
}
