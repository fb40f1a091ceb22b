package workload

import (
	"math"
	"reflect"
	"testing"

	"tasq/internal/scopesim"
	"tasq/internal/stats"
)

func TestGeneratedJobsAreValid(t *testing.T) {
	g := New(TestConfig(1))
	for _, j := range g.Workload(200) {
		if err := j.Validate(); err != nil {
			t.Fatalf("generated invalid job: %v", err)
		}
		if j.RequestedTokens < 1 {
			t.Fatalf("job %s requested %d tokens", j.ID, j.RequestedTokens)
		}
		if j.NumOperators() == 0 || j.NumStages() == 0 {
			t.Fatalf("job %s is empty", j.ID)
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a := New(TestConfig(42)).Workload(20)
	b := New(TestConfig(42)).Workload(20)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].NumStages() != b[i].NumStages() ||
			a[i].RequestedTokens != b[i].RequestedTokens || a[i].TotalWork() != b[i].TotalWork() {
			t.Fatalf("job %d differs between same-seed generators", i)
		}
	}
	c := New(TestConfig(43)).Workload(20)
	same := true
	for i := range a {
		if a[i].TotalWork() != c[i].TotalWork() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestWorkloadMix(t *testing.T) {
	cfg := TestConfig(7)
	cfg.AdHocFraction = 0.5
	g := New(cfg)
	jobs := g.Workload(400)
	var adhoc, recurring int
	templates := map[string]int{}
	for _, j := range jobs {
		if j.Template == "" {
			adhoc++
		} else {
			recurring++
			templates[j.Template]++
		}
	}
	if adhoc < 120 || adhoc > 280 {
		t.Fatalf("ad-hoc count %d far from expected ~200 of 400", adhoc)
	}
	// Recurring jobs must actually recur.
	var repeats int
	for _, c := range templates {
		if c > 1 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no template instantiated more than once")
	}
}

func TestRightSkewedDistributions(t *testing.T) {
	g := New(TestConfig(11))
	jobs := g.Workload(300)
	work := make([]float64, len(jobs))
	peaks := make([]float64, len(jobs))
	for i, j := range jobs {
		work[i] = float64(j.TotalWork())
		peaks[i] = float64(j.PeakParallelism())
	}
	// Right-skew: mean well above median, as the paper reports for both
	// run time (9.5 vs 3 minutes) and tokens (154 vs 54).
	if stats.Mean(work) < 1.3*stats.Median(work) {
		t.Fatalf("work not right-skewed: mean %.0f median %.0f", stats.Mean(work), stats.Median(work))
	}
	if stats.Mean(peaks) < 1.2*stats.Median(peaks) {
		t.Fatalf("peaks not right-skewed: mean %.0f median %.0f", stats.Mean(peaks), stats.Median(peaks))
	}
	if stats.Min(peaks) < 1 {
		t.Fatal("peak parallelism below 1")
	}
}

// exactAndNoisy generates n jobs from cfg twice on the same seed: at
// σ = 0, where the estimates are the generator's truth, and at cfg's
// σ > 0. noisyEstimates draws one NormFloat64 per estimate at any σ, so
// the two streams stay aligned; it fails unless every job has the same
// operators, partition counts and stages in both.
func exactAndNoisy(t *testing.T, cfg Config, n int) (exact, noisy []*scopesim.Job) {
	t.Helper()
	if cfg.EstimateSigma <= 0 {
		t.Fatalf("noisy stream needs sigma > 0, got %v", cfg.EstimateSigma)
	}
	noisy = New(cfg).Workload(n)
	cfg.EstimateSigma = 0
	// New replaces invalid values; 0 is valid and must be preserved.
	exact = New(cfg).Workload(n)
	for i := range exact {
		e, y := exact[i], noisy[i]
		if len(e.Operators) != len(y.Operators) || !reflect.DeepEqual(e.Stages, y.Stages) {
			t.Fatalf("job %d: the sigma=0 and sigma>0 streams diverged", i)
		}
		for k := range e.Operators {
			// Planner decisions are exact.
			if e.Operators[k].Kind != y.Operators[k].Kind ||
				e.Operators[k].Est.NumPartitions != y.Operators[k].Est.NumPartitions {
				t.Fatal("partition counts must be known exactly at compile time")
			}
		}
	}
	return exact, noisy
}

func TestEstimatesDifferFromTruth(t *testing.T) {
	exact, noisy := exactAndNoisy(t, TestConfig(3), 50)
	var diff, total int
	for i := range noisy {
		for k, op := range noisy[i].Operators {
			truth := exact[i].Operators[k].Est
			total++
			if op.Est.OutputCardinality != truth.OutputCardinality {
				diff++
			}
			if op.Est.OutputCardinality <= 0 || truth.OutputCardinality <= 0 {
				t.Fatal("cardinalities must stay positive")
			}
		}
	}
	if float64(diff) < 0.9*float64(total) {
		t.Fatalf("only %d/%d operators have noisy estimates", diff, total)
	}
}

// TestZeroEstimateSigmaGivesExactEstimates: at σ = 0 the estimates are
// the generator's truth, so they hold its dataflow exactly. The same seed
// at σ > 0 breaks it.
func TestZeroEstimateSigmaGivesExactEstimates(t *testing.T) {
	exact, noisy := exactAndNoisy(t, TestConfig(5), 10)
	broken := 0
	for i := range exact {
		if n := dataflowBreaks(exact[i]); n != 0 {
			t.Fatalf("sigma=0 must give exact estimates: job %d breaks the dataflow at %d operators", i, n)
		}
		broken += dataflowBreaks(noisy[i])
	}
	if broken == 0 {
		t.Fatal("sigma>0 estimates hold the dataflow exactly: the check sees no noise")
	}
}

// dataflowBreaks counts the operators of j whose estimates break the
// generator's dataflow: every operator reads the job's one leaf input,
// and one pipelined after a child in its own stage reads exactly what
// that child outputs.
func dataflowBreaks(j *scopesim.Job) int {
	n := 0
	for _, op := range j.Operators {
		if op.Est.LeafInputCardinality != j.Operators[0].Est.LeafInputCardinality {
			n++
		} else if len(op.Children) == 1 {
			if c := j.Operators[op.Children[0]]; c.Stage == op.Stage && op.Est.ChildrenInputCardinality != c.Est.OutputCardinality {
				n++
			}
		}
	}
	return n
}

func TestGeneratedJobsExecutable(t *testing.T) {
	g := New(TestConfig(9))
	var ex scopesim.Executor
	for _, j := range g.Workload(40) {
		res, err := ex.Run(j, j.RequestedTokens)
		if err != nil {
			t.Fatalf("job %s failed to execute: %v", j.ID, err)
		}
		if res.RuntimeSeconds < 1 {
			t.Fatalf("job %s ran in %ds", j.ID, res.RuntimeSeconds)
		}
		if res.Skyline.Area() != j.TotalWork() {
			t.Fatalf("job %s area %d != work %d", j.ID, res.Skyline.Area(), j.TotalWork())
		}
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	g := New(Config{Seed: 1}) // all other fields zero → defaults
	jobs := g.Workload(5)
	if len(jobs) != 5 {
		t.Fatal("generation with default config failed")
	}
	for _, j := range jobs {
		if j.SubmitTime.IsZero() {
			t.Fatal("submit time not set")
		}
		if j.VirtualCluster == "" {
			t.Fatal("virtual cluster not set")
		}
	}
}

func TestTokenRequestsClusterOnDefaults(t *testing.T) {
	g := New(TestConfig(13))
	jobs := g.Workload(300)
	defaults := map[int]bool{}
	for _, d := range defaultTokenChoices {
		defaults[d] = true
	}
	var onDefault int
	for _, j := range jobs {
		if defaults[j.RequestedTokens] {
			onDefault++
		}
	}
	// ~70% of users pick the template default (§1's user study).
	if float64(onDefault) < 0.5*float64(len(jobs)) {
		t.Fatalf("only %d/%d jobs use default token requests", onDefault, len(jobs))
	}
}

func TestSetInputDriftGrowsJobs(t *testing.T) {
	// Same seed: generate a stretch of jobs without drift, then regenerate
	// with drift and compare total work on the drifted stretch.
	base := New(TestConfig(77))
	baseJobs := base.Workload(120)

	drifted := New(TestConfig(77))
	drifted.Workload(60) // identical prefix consumes the same randomness
	if err := drifted.SetInputDrift(1.5); err != nil {
		t.Fatal(err)
	}
	driftedTail := drifted.Workload(60)

	var baseWork, driftWork int
	for i := 0; i < 60; i++ {
		baseWork += baseJobs[60+i].TotalWork()
		driftWork += driftedTail[i].TotalWork()
	}
	if float64(driftWork) < 1.2*float64(baseWork) {
		t.Fatalf("drifted work %d not clearly above base %d", driftWork, baseWork)
	}
	// Templates persist across the drift: recurring jobs still recur.
	var shared int
	seen := map[string]bool{}
	for _, j := range baseJobs[:60] {
		if j.Template != "" {
			seen[j.Template] = true
		}
	}
	for _, j := range driftedTail {
		if j.Template != "" && seen[j.Template] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no recurring templates survive the drift")
	}
	// A meaningless factor is refused, not clamped, and the drift in force
	// stays: the next job matches a same-seed generator kept at ×1.5.
	for _, bad := range []float64{0, 0.09, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := drifted.SetInputDrift(bad); err == nil {
			t.Errorf("SetInputDrift(%v) accepted", bad)
		}
	}
	twin := New(TestConfig(77))
	twin.Workload(60)
	if err := twin.SetInputDrift(1.5); err != nil {
		t.Fatal(err)
	}
	twin.Workload(60)
	if got, want := drifted.Job(), twin.Job(); got.TotalWork() != want.TotalWork() {
		t.Fatalf("a refused factor moved the drift: work %d, want %d", got.TotalWork(), want.TotalWork())
	}
}

// TestFullScalePopulationShape verifies the §5 population properties at
// production scale (SizeScale 1): right-skewed run times in the
// tens-of-seconds-to-hours band and right-skewed peak token usage with a
// median in the tens — the shape of the paper's 85K-job workload (run
// times 33s–21h with median 3 min; peaks 1–6,287 with median 54).
func TestFullScalePopulationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a full-scale workload")
	}
	g := New(DefaultConfig(123))
	jobs := g.Workload(400)
	var ex scopesim.Executor
	var rts, peaks []float64
	for _, j := range jobs {
		res, err := ex.Run(j, j.RequestedTokens)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, float64(res.RuntimeSeconds))
		peaks = append(peaks, float64(res.Skyline.Peak()))
	}
	if med := stats.Median(rts); med < 30 || med > 600 {
		t.Fatalf("median run time %.0fs outside the minutes band", med)
	}
	if stats.Mean(rts) < 1.2*stats.Median(rts) {
		t.Fatalf("run times not right-skewed: mean %.0f median %.0f", stats.Mean(rts), stats.Median(rts))
	}
	if max := stats.Max(rts); max < 600 {
		t.Fatalf("no long-tail jobs: max run time %.0fs", max)
	}
	if med := stats.Median(peaks); med < 10 || med > 300 {
		t.Fatalf("median peak %.0f tokens outside the tens band", med)
	}
	if stats.Mean(peaks) < 1.2*stats.Median(peaks) {
		t.Fatalf("peaks not right-skewed: mean %.0f median %.0f", stats.Mean(peaks), stats.Median(peaks))
	}
}

// intLists returns every int list of the job: each operator's Children,
// then each stage's Deps and Operators.
func intLists(j *scopesim.Job) []*[]int32 {
	var lists []*[]int32
	for i := range j.Operators {
		lists = append(lists, &j.Operators[i].Children)
	}
	for i := range j.Stages {
		lists = append(lists, &j.Stages[i].Deps, &j.Stages[i].Operators)
	}
	return lists
}

// TestGeneratedJobSlicesDoNotAlias holds the carved int lists to being
// independent: appending to one and writing the result must leave every
// list of the job as generated, and writing into a job must leave the
// next job (drawn from the same templates and ad-hoc scratch) as
// generated. A same-seed generator supplies the untouched reference.
func TestGeneratedJobSlicesDoNotAlias(t *testing.T) {
	g, ref := New(TestConfig(5)), New(TestConfig(5))
	job := g.Job()
	var adhoc, recurring int
	for n := 0; n < 80; n++ {
		want := ref.Job()
		if !reflect.DeepEqual(job, want) {
			t.Fatalf("job %s differs from the same-seed generator's before any write", job.ID)
		}
		if job.Template == "" {
			adhoc++
		} else {
			recurring++
		}
		for k, p := range intLists(job) {
			grown := append(*p, -1)
			for i := range grown {
				grown[i] = int32(-2 - i)
			}
			if !reflect.DeepEqual(job, want) {
				t.Fatalf("job %s: appending to int list %d changed the job", job.ID, k)
			}
		}
		for _, p := range intLists(job) {
			for i := range *p {
				(*p)[i] = -1
			}
		}
		job = g.Job()
	}
	if adhoc == 0 || recurring == 0 {
		t.Fatalf("want both kinds of job, got %d ad-hoc and %d recurring", adhoc, recurring)
	}
}
