package scopesim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tasq/internal/plan"
)

// chainJob builds a simple linear job: each stage depends on the previous.
func chainJob(id string, widths, durations []int) *Job {
	j := &Job{ID: id, RequestedTokens: 10}
	for i := range widths {
		st := Stage{ID: int32(i), Tasks: int32(widths[i]), TaskSeconds: durations[i]}
		if i > 0 {
			st.Deps = []int32{int32(i - 1)}
		}
		st.Operators = []int32{int32(i)}
		j.Stages = append(j.Stages, st)
		j.Operators = append(j.Operators, Operator{
			ID:           int32(i),
			Kind:         OpFilter,
			Partitioning: PartitionHash,
			Stage:        int32(i),
		})
	}
	return j
}

func TestOpKindAndPartitionNames(t *testing.T) {
	if len(opKindNames) != NumOpKinds {
		t.Fatalf("have %d names for %d operator kinds", len(opKindNames), NumOpKinds)
	}
	if NumOpKinds != 35 {
		t.Fatalf("paper specifies 35 physical operators, have %d", NumOpKinds)
	}
	if NumPartitionMethods != 4 {
		t.Fatalf("paper specifies 4 partitioning methods, have %d", NumPartitionMethods)
	}
	seen := map[string]bool{}
	for k := 0; k < NumOpKinds; k++ {
		name := OpKind(k).String()
		if seen[name] {
			t.Fatalf("duplicate operator name %q", name)
		}
		seen[name] = true
		if !OpKind(k).Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
	}
	if OpKind(-1).Valid() || OpKind(NumOpKinds).Valid() {
		t.Fatal("out-of-range kinds must be invalid")
	}
	if !strings.HasPrefix(OpKind(99).String(), "OpKind(") {
		t.Fatal("out-of-range kind must stringify diagnostically")
	}
	if PartitionMethod(99).Valid() {
		t.Fatal("out-of-range partition method must be invalid")
	}
	for p := 0; p < NumPartitionMethods; p++ {
		if PartitionMethod(p).String() == "" {
			t.Fatalf("partition method %d has empty name", p)
		}
	}
}

func TestCostWeightsPositive(t *testing.T) {
	for k := 0; k < NumOpKinds; k++ {
		if w := OpKind(k).CostWeight(); w <= 0 {
			t.Fatalf("cost weight of %v = %v", OpKind(k), w)
		}
	}
}

func TestJobValidate(t *testing.T) {
	good := chainJob("ok", []int{4, 2}, []int{3, 5})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"bad operator id", func(j *Job) { j.Operators[1].ID = 7 }},
		{"bad kind", func(j *Job) { j.Operators[0].Kind = OpKind(99) }},
		{"bad partitioning", func(j *Job) { j.Operators[0].Partitioning = PartitionMethod(9) }},
		{"bad stage ref", func(j *Job) { j.Operators[0].Stage = 5 }},
		{"child out of range", func(j *Job) { j.Operators[0].Children = []int32{9} }},
		{"self child", func(j *Job) { j.Operators[0].Children = []int32{0} }},
		{"bad stage id", func(j *Job) { j.Stages[1].ID = 3 }},
		{"zero tasks", func(j *Job) { j.Stages[0].Tasks = 0 }},
		{"zero duration", func(j *Job) { j.Stages[0].TaskSeconds = 0 }},
		{"dep out of range", func(j *Job) { j.Stages[0].Deps = []int32{5} }},
		{"self dep", func(j *Job) { j.Stages[0].Deps = []int32{0} }},
		{"cycle", func(j *Job) { j.Stages[0].Deps = []int32{1} }},
	}
	for _, tc := range cases {
		j := chainJob("bad", []int{4, 2}, []int{3, 5})
		tc.mutate(j)
		if err := j.Validate(); err == nil {
			t.Fatalf("%s: invalid job accepted", tc.name)
		}
	}
}

func TestStageOrderTopological(t *testing.T) {
	// Diamond: 0 → {1, 2} → 3.
	j := &Job{ID: "diamond"}
	j.Stages = []Stage{
		{ID: 0, Tasks: 1, TaskSeconds: 1},
		{ID: 1, Tasks: 1, TaskSeconds: 1, Deps: []int32{0}},
		{ID: 2, Tasks: 1, TaskSeconds: 1, Deps: []int32{0}},
		{ID: 3, Tasks: 1, TaskSeconds: 1, Deps: []int32{1, 2}},
	}
	order, err := j.StageOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, s := range order {
		pos[s] = i
	}
	for _, st := range j.Stages {
		for _, d := range st.Deps {
			if pos[int(d)] >= pos[int(st.ID)] {
				t.Fatalf("order %v violates dep %d → %d", order, d, st.ID)
			}
		}
	}
}

func TestTotalWorkPeakCriticalPath(t *testing.T) {
	j := chainJob("j", []int{10, 2}, []int{3, 7})
	if got := j.TotalWork(); got != 10*3+2*7 {
		t.Fatalf("total work = %d, want 44", got)
	}
	if got := j.PeakParallelism(); got != 10 {
		t.Fatalf("peak parallelism = %d, want 10", got)
	}
	cp, err := j.CriticalPathSeconds()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 10 {
		t.Fatalf("critical path = %d, want 10", cp)
	}
}

func TestAdjacencyMatrix(t *testing.T) {
	j := chainJob("j", []int{1, 1, 1}, []int{1, 1, 1})
	j.Operators[1].Children = []int32{0}
	j.Operators[2].Children = []int32{1}
	adj := j.AdjacencyMatrix()
	if adj[1][0] != 1 || adj[2][1] != 1 {
		t.Fatalf("missing edges: %v", adj)
	}
	var total float64
	for _, row := range adj {
		for _, v := range row {
			total += v
		}
	}
	if total != 2 {
		t.Fatalf("edge count = %v, want 2", total)
	}
}

func TestAnonymize(t *testing.T) {
	j := &Job{ID: "secret-job", Template: "secret-pipeline", VirtualCluster: "contoso-vc"}
	j.Anonymize(17)
	if j.ID != "job-000017" {
		t.Fatalf("id = %q", j.ID)
	}
	if strings.Contains(j.Template, "secret") || strings.Contains(j.VirtualCluster, "contoso") {
		t.Fatalf("identifying data survived: %q %q", j.Template, j.VirtualCluster)
	}
	// Same input anonymizes to the same tag (templates must stay groupable).
	j2 := &Job{ID: "x", Template: "secret-pipeline", VirtualCluster: "contoso-vc"}
	j2.Anonymize(18)
	if j.Template != j2.Template {
		t.Fatal("anonymization must be deterministic per template")
	}
	// Ad-hoc jobs keep an empty template.
	adhoc := &Job{ID: "y"}
	adhoc.Anonymize(1)
	if adhoc.Template != "" {
		t.Fatalf("ad-hoc template = %q, want empty", adhoc.Template)
	}
}

func TestExecutorSingleStageExact(t *testing.T) {
	// 10 tasks × 4s with 5 tokens: two waves of 5 → 8 seconds at usage 5.
	j := chainJob("one", []int{10}, []int{4})
	var ex Executor
	res, err := ex.Run(j, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSeconds != 8 {
		t.Fatalf("runtime = %d, want 8", res.RuntimeSeconds)
	}
	for i, v := range res.Skyline {
		if v != 5 {
			t.Fatalf("skyline[%d] = %d, want 5", i, v)
		}
	}
	if res.Skyline.Area() != j.TotalWork() {
		t.Fatalf("area = %d, want %d", res.Skyline.Area(), j.TotalWork())
	}
}

func TestExecutorUnlimitedTokensHitsCriticalPath(t *testing.T) {
	j := chainJob("cp", []int{8, 3, 12}, []int{5, 2, 7})
	var ex Executor
	res, err := ex.Run(j, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := j.CriticalPathSeconds()
	if res.RuntimeSeconds != cp {
		t.Fatalf("runtime with ample tokens = %d, want critical path %d", res.RuntimeSeconds, cp)
	}
}

func TestExecutorOneTokenSerializes(t *testing.T) {
	j := chainJob("serial", []int{3, 2}, []int{2, 5})
	var ex Executor
	res, err := ex.Run(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*2 + 2*5; res.RuntimeSeconds != want {
		t.Fatalf("serial runtime = %d, want %d", res.RuntimeSeconds, want)
	}
	if res.Skyline.Peak() != 1 {
		t.Fatalf("peak usage = %d, want 1", res.Skyline.Peak())
	}
}

func TestExecutorDiamondConcurrency(t *testing.T) {
	// 0 → {1, 2} → 3; middle stages can overlap given enough tokens.
	j := &Job{ID: "diamond"}
	j.Stages = []Stage{
		{ID: 0, Tasks: 2, TaskSeconds: 2},
		{ID: 1, Tasks: 4, TaskSeconds: 3, Deps: []int32{0}},
		{ID: 2, Tasks: 4, TaskSeconds: 3, Deps: []int32{0}},
		{ID: 3, Tasks: 1, TaskSeconds: 2, Deps: []int32{1, 2}},
	}
	var ex Executor
	res, err := ex.Run(j, 8)
	if err != nil {
		t.Fatal(err)
	}
	// t∈[0,2): stage 0 (2 tokens); t∈[2,5): stages 1+2 (8 tokens); t∈[5,7): stage 3.
	if res.RuntimeSeconds != 7 {
		t.Fatalf("runtime = %d, want 7", res.RuntimeSeconds)
	}
	if res.Skyline.Peak() != 8 {
		t.Fatalf("peak = %d, want 8 (stages 1 and 2 overlap)", res.Skyline.Peak())
	}
}

func TestExecutorSkylineValleys(t *testing.T) {
	// A wide stage, a narrow barrier, another wide stage → valley between peaks.
	j := chainJob("valley", []int{20, 1, 20}, []int{3, 4, 3})
	var ex Executor
	res, err := ex.Run(j, 20)
	if err != nil {
		t.Fatal(err)
	}
	// During the barrier only 1 token is used.
	secs := res.Skyline.Sections(5)
	var sawValley bool
	for _, s := range secs {
		if !s.Over && s.Len() >= 3 {
			sawValley = true
		}
	}
	if !sawValley {
		t.Fatalf("no valley in skyline %v", res.Skyline)
	}
}

func TestExecutorErrors(t *testing.T) {
	j := chainJob("j", []int{1}, []int{1})
	var ex Executor
	if _, err := ex.Run(j, 0); err == nil {
		t.Fatal("zero tokens accepted")
	}
	bad := chainJob("bad", []int{0}, []int{1})
	if _, err := ex.Run(bad, 1); err == nil {
		t.Fatal("invalid job accepted")
	}
	small := Executor{MaxRuntimeSeconds: 3}
	long := chainJob("long", []int{1}, []int{10})
	if _, err := small.Run(long, 1); err == nil {
		t.Fatal("runtime cap not enforced")
	}
	if _, err := ex.RunNoisy(j, 1, nil, Noise{}); err == nil {
		t.Fatal("RunNoisy without rng accepted")
	}
}

func TestExecutorRejectsNonPositiveAllocationsTyped(t *testing.T) {
	// Regression: zero/negative allocations must fail with the shared
	// typed error (mapped to HTTP 400 by the serving layer), never run a
	// silent bad simulation.
	j := chainJob("j", []int{2, 3}, []int{1, 2})
	var ex Executor
	for _, tokens := range []int{0, -1, -50} {
		if _, err := ex.Run(j, tokens); !errors.Is(err, ErrBadAllocation) {
			t.Fatalf("allocation %d: got %v, want ErrBadAllocation", tokens, err)
		}
		rng := rand.New(rand.NewSource(1))
		if _, err := ex.RunNoisy(j, tokens, rng, Noise{Sigma: 0.1}); !errors.Is(err, ErrBadAllocation) {
			t.Fatalf("noisy allocation %d: got %v, want ErrBadAllocation", tokens, err)
		}
	}
	// And the error is plan's, so one errors.Is covers every layer.
	if _, err := ex.Run(j, 0); !errors.Is(err, plan.ErrBadAllocation) {
		t.Fatalf("scopesim error does not unwrap to plan.ErrBadAllocation: %v", err)
	}
}

func TestExecutorPoolLedgerConsistency(t *testing.T) {
	// The executor's skyline can never exceed its allocation: the shared
	// pool ledger enforces the capacity invariant at every instant.
	rng := rand.New(rand.NewSource(7))
	var ex Executor
	for i := 0; i < 20; i++ {
		j := randomDAGJob(rng, 6)
		tokens := 1 + rng.Intn(12)
		res, err := ex.Run(j, tokens)
		if err != nil {
			t.Fatal(err)
		}
		for s, used := range res.Skyline {
			if used < 0 || int(used) > tokens {
				t.Fatalf("job %s second %d uses %d of %d tokens", j.ID, s, used, tokens)
			}
		}
	}
}

func TestExecutorEmptyJob(t *testing.T) {
	var ex Executor
	res, err := ex.Run(&Job{ID: "empty"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSeconds != 0 {
		t.Fatalf("empty job runtime = %d", res.RuntimeSeconds)
	}
}

func TestExecutorDeterminism(t *testing.T) {
	j := randomDAGJob(rand.New(rand.NewSource(5)), 6)
	var ex Executor
	a, err := ex.Run(j, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Run(j, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeSeconds != b.RuntimeSeconds {
		t.Fatalf("non-deterministic runtimes %d vs %d", a.RuntimeSeconds, b.RuntimeSeconds)
	}
	for i := range a.Skyline {
		if a.Skyline[i] != b.Skyline[i] {
			t.Fatal("non-deterministic skyline")
		}
	}
}

func TestExecutorWorkConservedProperty(t *testing.T) {
	// The skyline area always equals the job's total work, at any allocation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := randomDAGJob(rng, 2+rng.Intn(6))
		tokens := 1 + rng.Intn(30)
		var ex Executor
		res, err := ex.Run(j, tokens)
		if err != nil {
			return false
		}
		return res.Skyline.Area() == j.TotalWork() && res.Skyline.Peak() <= tokens
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorRuntimeNearMonotoneProperty(t *testing.T) {
	// More tokens must not slow the job down beyond scheduling-anomaly
	// slack (the paper tolerates 10%; our FIFO scheduler is tighter but
	// DAG anomalies can cost a few seconds).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := randomDAGJob(rng, 2+rng.Intn(6))
		a := 1 + rng.Intn(20)
		b := a + 1 + rng.Intn(20)
		var ex Executor
		ra, err := ex.Run(j, a)
		if err != nil {
			return false
		}
		rb, err := ex.Run(j, b)
		if err != nil {
			return false
		}
		slack := 1.10 // 10% tolerance, as §5.1
		return float64(rb.RuntimeSeconds) <= float64(ra.RuntimeSeconds)*slack+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorBounds(t *testing.T) {
	// Runtime is bounded below by the critical path and ceil(work/tokens),
	// and above by total serial work.
	j := randomDAGJob(rand.New(rand.NewSource(11)), 5)
	var ex Executor
	for _, tokens := range []int{1, 3, 9, 50} {
		res, err := ex.Run(j, tokens)
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := j.CriticalPathSeconds()
		lower := (j.TotalWork() + tokens - 1) / tokens
		if lower < cp {
			lower = cp
		}
		if res.RuntimeSeconds < lower {
			t.Fatalf("tokens=%d runtime %d below lower bound %d", tokens, res.RuntimeSeconds, lower)
		}
		if res.RuntimeSeconds > j.TotalWork() {
			t.Fatalf("tokens=%d runtime %d above serial bound %d", tokens, res.RuntimeSeconds, j.TotalWork())
		}
	}
}

func TestRunNoisyPerturbsRuntime(t *testing.T) {
	j := chainJob("noisy", []int{10, 10}, []int{10, 10})
	var ex Executor
	base, err := ex.Run(j, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	diffs := 0
	for i := 0; i < 10; i++ {
		res, err := ex.RunNoisy(j, 5, rng, Noise{Sigma: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if res.RuntimeSeconds != base.RuntimeSeconds {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("noise never changed the runtime")
	}
}

func TestRunNoisySlowdownAnomaly(t *testing.T) {
	j := chainJob("anomaly", []int{4}, []int{10})
	var ex Executor
	base, _ := ex.Run(j, 4)
	rng := rand.New(rand.NewSource(1))
	res, err := ex.RunNoisy(j, 4, rng, Noise{SlowdownProb: 1, SlowdownFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSeconds < base.RuntimeSeconds*2 {
		t.Fatalf("slowdown anomaly runtime %d vs base %d", res.RuntimeSeconds, base.RuntimeSeconds)
	}
}

// randomDAGJob builds a random layered DAG job for property tests.
func randomDAGJob(rng *rand.Rand, stages int) *Job {
	j := &Job{ID: "rand", RequestedTokens: 10}
	for i := 0; i < stages; i++ {
		st := Stage{
			ID:          int32(i),
			Tasks:       int32(1 + rng.Intn(25)),
			TaskSeconds: 1 + rng.Intn(12),
		}
		// Depend on a random subset of earlier stages (at least the
		// previous one half the time, to keep chains long).
		for d := 0; d < i; d++ {
			if rng.Float64() < 0.4 {
				st.Deps = append(st.Deps, int32(d))
			}
		}
		st.Operators = []int32{int32(i)}
		j.Stages = append(j.Stages, st)
		j.Operators = append(j.Operators, Operator{
			ID:           int32(i),
			Kind:         OpKind(rng.Intn(NumOpKinds)),
			Partitioning: PartitionMethod(rng.Intn(NumPartitionMethods)),
			Stage:        int32(i),
		})
	}
	return j
}
