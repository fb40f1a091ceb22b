// Package workload synthesizes SCOPE-like production workloads, standing in
// for the proprietary Cosmos traces the paper trains on (85K jobs/day; see
// DESIGN.md). Generated jobs reproduce the population properties the paper
// reports in §5: right-skewed run-time and token distributions, a mix of
// recurring (template-instantiated) and ad-hoc jobs, and compile-time
// operator estimates that are noisy versions of the true values the
// executor runs on — so learned models face realistic estimation error.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"tasq/internal/scopesim"
)

// Config controls workload synthesis.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// NumTemplates is the number of distinct recurring-job templates; the
	// paper notes 40–60% of SCOPE jobs are new, the rest recur.
	NumTemplates int
	// AdHocFraction is the probability a job is ad-hoc (a fresh random
	// plan rather than a template instance).
	AdHocFraction float64
	// SizeScale multiplies job sizes; 1.0 targets the paper's population
	// (median run time minutes, median peak tokens ~50). Tests use
	// smaller values for speed.
	SizeScale float64
	// EstimateSigma is the log-normal noise between true operator metrics
	// and their compile-time estimates (cardinality estimation error).
	EstimateSigma float64
	// VirtualClusters is the number of distinct virtual clusters jobs are
	// submitted to.
	VirtualClusters int
	// Start is the submission time of the first job; jobs arrive at a
	// steady synthetic rate after it.
	Start time.Time
}

// DefaultConfig returns the configuration used by the experiment harnesses.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		NumTemplates:    60,
		AdHocFraction:   0.5,
		SizeScale:       1.0,
		EstimateSigma:   0.35,
		VirtualClusters: 8,
		Start:           time.Date(2022, 1, 10, 0, 0, 0, 0, time.UTC),
	}
}

// TestConfig returns a small, fast configuration for unit tests.
func TestConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.NumTemplates = 12
	c.SizeScale = 0.25
	return c
}

// template captures the reusable shape of a recurring job.
type template struct {
	name      string
	vc        string
	stages    []templateStage
	baseInput float64 // base leaf cardinality (rows)
	rowLength float64
	// complexity is the pipeline's per-row computational weight (UDO-heavy
	// pipelines churn far longer per row than simple scans); it fattens
	// the run-time tail the paper reports (33s to 21h) and is visible to
	// the models through the operators' cost estimates.
	complexity    float64
	defaultTokens int
}

type templateStage struct {
	deps    []int32
	opKinds []scopesim.OpKind
	parts   []scopesim.PartitionMethod
	// widthFactor scales the stage's partition count relative to the
	// job's input-derived parallelism: wide extract/shuffle stages near
	// 1, narrow aggregation/output stages near 0.
	widthFactor float64
	// selectivity is output rows / input rows through this stage.
	selectivity float64
}

// Generator produces jobs. It is not safe for concurrent use; create one
// per goroutine (each is cheap). The pipeline deliberately keeps job
// *generation* on one goroutine — the stream is cheap and sequentially
// seeded, so serializing it preserves the legacy byte-identical workload —
// and instead parallelizes the expensive per-job *executions* downstream
// (jobrepo.IngestParallel, flight.Execute), which draw nothing from this
// rng.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	templates []*template
	count     int
	// drift multiplies instance input sizes from the moment it is set —
	// the input growth of §1 that makes stale historical skylines
	// unreliable for recurring jobs.
	drift float64
	// adhoc is the scratch shape every ad-hoc job is drawn into, reused so
	// its stage lists stop growing after the first few jobs; instantiate
	// copies out everything a job keeps.
	adhoc template
}

// New creates a generator. Invalid or zero config fields are replaced with
// defaults from DefaultConfig.
func New(cfg Config) *Generator {
	def := DefaultConfig(cfg.Seed)
	if cfg.NumTemplates < 1 {
		cfg.NumTemplates = def.NumTemplates
	}
	if cfg.AdHocFraction < 0 || cfg.AdHocFraction > 1 {
		cfg.AdHocFraction = def.AdHocFraction
	}
	if cfg.SizeScale <= 0 {
		cfg.SizeScale = def.SizeScale
	}
	if cfg.EstimateSigma < 0 {
		cfg.EstimateSigma = def.EstimateSigma
	}
	if cfg.VirtualClusters < 1 {
		cfg.VirtualClusters = def.VirtualClusters
	}
	if cfg.Start.IsZero() {
		cfg.Start = def.Start
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), drift: 1}
	for i := 0; i < cfg.NumTemplates; i++ {
		t := &template{name: fmt.Sprintf("pipeline-%03d", i)}
		g.drawTemplate(t)
		g.templates = append(g.templates, t)
	}
	return g
}

// Workload generates n jobs.
func (g *Generator) Workload(n int) []*scopesim.Job {
	out := make([]*scopesim.Job, n)
	for i := range out {
		out[i] = g.Job()
	}
	return out
}

// SetInputDrift multiplies all subsequently generated jobs' input sizes by
// factor: the data growth over time that §1 of the paper cites as the
// reason historical skylines go stale for recurring jobs. A factor that is
// not finite or is below 0.1 is refused and the drift is left as it was.
func (g *Generator) SetInputDrift(factor float64) error {
	if !(factor >= 0.1) || math.IsInf(factor, 1) {
		return fmt.Errorf("workload: input drift %v: want a finite factor ≥ 0.1", factor)
	}
	g.drift = factor
	return nil
}

// Job generates the next job: a template instance with probability
// 1−AdHocFraction, otherwise a fresh ad-hoc plan.
func (g *Generator) Job() *scopesim.Job {
	g.count++
	id := fmt.Sprintf("job-%07d", g.count)
	submit := g.cfg.Start.Add(time.Duration(g.count) * 400 * time.Millisecond)
	if g.rng.Float64() < g.cfg.AdHocFraction {
		g.drawTemplate(&g.adhoc) // ad-hoc jobs carry no template name
		return g.instantiate(&g.adhoc, id, submit)
	}
	t := g.templates[g.rng.Intn(len(g.templates))]
	return g.instantiate(t, id, submit)
}

// drawTemplate draws a random job shape into t, keeping t's name and
// reusing the capacity of its stage lists.
func (g *Generator) drawTemplate(t *template) {
	rng := g.rng
	t.vc = fmt.Sprintf("vc-%02d", rng.Intn(g.cfg.VirtualClusters))
	// Log-normal input size: median ~3e6 rows with a heavy right tail.
	t.baseInput = math.Exp(rng.NormFloat64()*1.8 + 15.2)
	t.rowLength = 40 + rng.Float64()*400
	t.complexity = math.Exp(rng.NormFloat64() * 1.0)
	numStages := 2 + rng.Intn(14) // 2–15 stages
	t.stages = slices.Grow(t.stages[:0], numStages)[:numStages]
	for s := range t.stages {
		ts := &t.stages[s]
		ts.widthFactor = 0.2 + rng.Float64()*0.8
		ts.selectivity = 0.1 + rng.Float64()*0.9
		ts.deps, ts.opKinds, ts.parts = ts.deps[:0], ts.opKinds[:0], ts.parts[:0]
		if s > 0 {
			// Depend on the previous stage, plus occasionally an earlier one
			// (join fan-in), keeping the DAG connected and layered.
			ts.deps = append(ts.deps, int32(s-1))
			if s > 1 && rng.Float64() < 0.35 {
				d := rng.Intn(s - 1)
				ts.deps = append(ts.deps, int32(d))
			}
		}
		numOps := 1 + rng.Intn(4)
		for o := 0; o < numOps; o++ {
			var k scopesim.OpKind
			switch {
			case s == 0 && o == 0:
				k = leafKinds[rng.Intn(len(leafKinds))]
			case s == numStages-1 && o == numOps-1:
				k = scopesim.OpOutput
			default:
				k = innerKinds[rng.Intn(len(innerKinds))]
			}
			ts.opKinds = append(ts.opKinds, k)
			ts.parts = append(ts.parts, scopesim.PartitionMethod(rng.Intn(scopesim.NumPartitionMethods)))
		}
	}
	// Users overwhelmingly pick a default token request (§1's user study):
	// the template default is the smallest round number covering the
	// template's estimated peak parallelism, occasionally one size up
	// (teams "to be safe" pick generous defaults).
	est := t.estimatedPeak(g.cfg.SizeScale)
	idx := 0
	for idx < len(defaultTokenChoices)-1 && defaultTokenChoices[idx] < est {
		idx++
	}
	if rng.Float64() < 0.15 && idx < len(defaultTokenChoices)-1 {
		idx++
	}
	t.defaultTokens = defaultTokenChoices[idx]
}

// estimatedPeak approximates the widest stage of a typical instance of the
// template, mirroring the width computation in instantiate.
func (t *template) estimatedPeak(scale float64) int {
	input := t.baseInput * scale
	peak := 1
	for _, ts := range t.stages {
		tasks := int(math.Ceil(input / rowsPerPartition * ts.widthFactor * 4))
		if tasks > peak {
			peak = tasks
		}
	}
	if peak > 6000 {
		peak = 6000
	}
	return peak
}

var leafKinds = []scopesim.OpKind{scopesim.OpExtract, scopesim.OpTableScan, scopesim.OpIndexLookup}

var innerKinds = []scopesim.OpKind{
	scopesim.OpFilter, scopesim.OpProject, scopesim.OpProcess, scopesim.OpReduce,
	scopesim.OpCombine, scopesim.OpHashJoin, scopesim.OpMergeJoin,
	scopesim.OpNestedLoopJoin, scopesim.OpCrossJoin, scopesim.OpSemiJoin,
	scopesim.OpAntiSemiJoin, scopesim.OpHashGroupBy, scopesim.OpStreamGroupBy,
	scopesim.OpAggregate, scopesim.OpLocalAggregate, scopesim.OpGlobalAggregate,
	scopesim.OpSort, scopesim.OpTopSort, scopesim.OpWindow, scopesim.OpExchange,
	scopesim.OpBroadcastOp, scopesim.OpHashPartitionOp, scopesim.OpRangePartitionOp,
	scopesim.OpSplit, scopesim.OpSpool, scopesim.OpUnion, scopesim.OpUnionAll,
	scopesim.OpIntersect, scopesim.OpExcept, scopesim.OpView, scopesim.OpUserDefined,
}

// defaultTokenChoices are the static defaults users tend to request (the
// paper's example default is 125 tokens).
var defaultTokenChoices = []int{10, 25, 50, 100, 125, 150, 200, 250, 300, 500, 1000, 2000}

// rowsPerTaskSecond calibrates task durations: how many row·weight units a
// token processes per second.
const rowsPerTaskSecond = 45_000

// rowsPerPartition calibrates stage widths: target rows per task.
const rowsPerPartition = 260_000

// instantiate builds a concrete job from a template. Recurring instances
// vary their input size run-over-run (the input-growth effect that makes
// stale historical skylines unreliable, §1).
func (g *Generator) instantiate(t *template, id string, submit time.Time) *scopesim.Job {
	rng := g.rng
	input := t.baseInput * math.Exp(rng.NormFloat64()*0.3) * g.cfg.SizeScale * g.drift

	// Every int list of the job (stage deps, stage operators, operator
	// children) is carved out of one array sized up front: a first
	// operator has one child per dep stage, every later one its
	// predecessor.
	numOps, numInts := 0, 0
	for _, ts := range t.stages {
		numOps += len(ts.opKinds)
		numInts += 2*len(ts.deps) + 2*len(ts.opKinds) - 1
	}
	ints := make([]int32, numInts)
	job := &scopesim.Job{
		ID:             id,
		Template:       t.name,
		VirtualCluster: t.vc,
		SubmitTime:     submit,
		Operators:      make([]scopesim.Operator, numOps),
		Stages:         make([]scopesim.Stage, len(t.stages)),
	}

	// Per-stage dataflow: rows entering a stage are the sum of rows leaving
	// its dependency stages (leaves read the input).
	stageOutRows := make([]float64, len(t.stages))
	opID := 0
	var prevLastOp = make([]int32, len(t.stages)) // last operator of each stage
	for s, ts := range t.stages {
		inRows := input
		if len(ts.deps) > 0 {
			inRows = 0
			for _, d := range ts.deps {
				inRows += stageOutRows[d]
			}
		}
		if inRows < 1 {
			inRows = 1
		}
		outRows := inRows * ts.selectivity
		if outRows < 1 {
			outRows = 1
		}
		stageOutRows[s] = outRows

		// Stage width: enough tasks to keep rows-per-task near target,
		// scaled by the template's width factor.
		tasks := int(math.Ceil(inRows / rowsPerPartition * ts.widthFactor * 4))
		if tasks < 1 {
			tasks = 1
		}
		if tasks > 6000 {
			tasks = 6000
		}

		// Work per task: rows per task × operator weights × row length factor.
		var weight float64
		for _, k := range ts.opKinds {
			weight += k.CostWeight()
		}
		rowFactor := (0.5 + t.rowLength/300) * t.complexity
		taskSec := int(math.Round(inRows / float64(tasks) * weight * rowFactor / rowsPerTaskSecond))
		if taskSec < 1 {
			taskSec = 1
		}
		if taskSec > 3600 {
			taskSec = 3600
		}

		stage := &job.Stages[s]
		*stage = scopesim.Stage{ID: int32(s), Tasks: int32(tasks), TaskSeconds: taskSec}
		stage.Deps = append(carve(&ints, len(ts.deps)), ts.deps...)
		stage.Operators = carve(&ints, len(ts.opKinds))

		// Build this stage's operators as a pipeline; the first operator of
		// a dependent stage consumes the last operator of each dep stage.
		rows := inRows
		perOpSel := math.Pow(ts.selectivity, 1/float64(len(ts.opKinds)))
		for o, kind := range ts.opKinds {
			op := &job.Operators[opID]
			*op = scopesim.Operator{
				ID:           int32(opID),
				Kind:         kind,
				Partitioning: ts.parts[o],
				Stage:        int32(s),
			}
			if o == 0 {
				op.Children = carve(&ints, len(ts.deps))
				for _, d := range ts.deps {
					op.Children = append(op.Children, prevLastOp[d])
				}
			} else {
				op.Children = append(carve(&ints, 1), int32(opID-1))
			}
			outOp := rows * perOpSel
			op.Est = g.noisyEstimates(scopesim.OpMetrics{
				OutputCardinality:        outOp,
				LeafInputCardinality:     input,
				ChildrenInputCardinality: rows,
				AvgRowLength:             t.rowLength,
				ExclusiveCost:            rows * kind.CostWeight() * t.complexity,
				NumPartitions:            int32(tasks),
				NumPartitioningColumns:   int32(1 + rng.Intn(3)),
				NumSortColumns:           sortColumns(kind, rng),
			})
			stage.Operators = append(stage.Operators, int32(opID))
			rows = outOp
			opID++
		}
		prevLastOp[s] = int32(opID - 1)
	}
	fillCumulativeCosts(job)

	// Token request: users pick the template default; a minority size the
	// request near (occasionally below) the job's actual peak parallelism.
	peak := job.PeakParallelism()
	switch {
	case rng.Float64() < 0.7:
		job.RequestedTokens = t.defaultTokens
	case rng.Float64() < 0.5:
		job.RequestedTokens = peak + rng.Intn(peak/2+2)
	default:
		job.RequestedTokens = peak/2 + 1 + rng.Intn(peak/2+1)
	}
	if job.RequestedTokens < 1 {
		job.RequestedTokens = 1
	}
	return job
}

// carve cuts the next n ints off *ints as an empty slice capped at n, so
// filling it by append stays in place while a consumer's later append
// reallocates instead of overwriting a neighbour. n == 0 gives nil, as
// appending nothing to a nil slice did.
func carve(ints *[]int32, n int) []int32 {
	if n == 0 {
		return nil
	}
	s := (*ints)[:0:n]
	*ints = (*ints)[n:]
	return s
}

func sortColumns(k scopesim.OpKind, rng *rand.Rand) int32 {
	switch k {
	case scopesim.OpSort, scopesim.OpTopSort, scopesim.OpMergeJoin, scopesim.OpStreamGroupBy, scopesim.OpWindow:
		return int32(1 + rng.Intn(4))
	default:
		return 0
	}
}

// fillCumulativeCosts computes the estimated subtree and total costs from
// the estimated exclusive costs and the DAG. instantiate numbers every
// operator after its children, so one forward pass finds each child's
// subtree cost ready and adds them in child order.
func fillCumulativeCosts(job *scopesim.Job) {
	ops := job.Operators
	var total float64
	for i := range ops {
		op := &ops[i]
		cost := op.Est.ExclusiveCost
		for _, c := range op.Children {
			cost += ops[c].Est.SubtreeCost
		}
		op.Est.SubtreeCost = cost
		total += op.Est.ExclusiveCost
	}
	for i := range ops {
		ops[i].Est.TotalCost = total
	}
}

// noisyEstimates derives compile-time estimates from true metrics by
// applying multiplicative log-normal noise — the cardinality-estimation
// error every optimizer suffers, which bounds achievable model accuracy.
func (g *Generator) noisyEstimates(truth scopesim.OpMetrics) scopesim.OpMetrics {
	noise := func(v float64) float64 {
		return v * math.Exp(g.rng.NormFloat64()*g.cfg.EstimateSigma)
	}
	est := truth
	est.OutputCardinality = noise(truth.OutputCardinality)
	est.LeafInputCardinality = noise(truth.LeafInputCardinality)
	est.ChildrenInputCardinality = noise(truth.ChildrenInputCardinality)
	est.AvgRowLength = noise(truth.AvgRowLength)
	est.ExclusiveCost = noise(truth.ExclusiveCost)
	// Partition counts are planner decisions, known exactly at compile time.
	return est
}
