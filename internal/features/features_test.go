package features

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"tasq/internal/ml/linalg"
	"tasq/internal/scopesim"
	"tasq/internal/stats"
	"tasq/internal/workload"
)

func sampleJob(t *testing.T) *scopesim.Job {
	t.Helper()
	g := workload.New(workload.TestConfig(1))
	j := g.Job()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestOperatorFeatureNamesAlignWithDim(t *testing.T) {
	names := OperatorFeatureNames()
	if len(names) != OperatorDim {
		t.Fatalf("%d names for OperatorDim %d", len(names), OperatorDim)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestOperatorRowOneHots(t *testing.T) {
	op := &scopesim.Operator{
		Kind:         scopesim.OpHashJoin,
		Partitioning: scopesim.PartitionRange,
		Est: scopesim.OpMetrics{
			OutputCardinality: math.E - 1, // log1p → exactly 1
			NumPartitions:     10,
		},
	}
	row := OperatorRow(op)
	if len(row) != OperatorDim {
		t.Fatalf("row length %d, want %d", len(row), OperatorDim)
	}
	if math.Abs(row[0]-1) > 1e-12 {
		t.Fatalf("log1p(output card) = %v, want 1", row[0])
	}
	// Exactly one op-kind one-hot and one partition one-hot must be set.
	base := 10
	var kinds, parts int
	for k := 0; k < scopesim.NumOpKinds; k++ {
		if row[base+k] != 0 {
			kinds++
			if k != int(scopesim.OpHashJoin) {
				t.Fatalf("wrong kind one-hot at %d", k)
			}
		}
	}
	for p := 0; p < scopesim.NumPartitionMethods; p++ {
		if row[base+scopesim.NumOpKinds+p] != 0 {
			parts++
			if p != int(scopesim.PartitionRange) {
				t.Fatalf("wrong partition one-hot at %d", p)
			}
		}
	}
	if kinds != 1 || parts != 1 {
		t.Fatalf("one-hot counts kind=%d part=%d, want 1/1", kinds, parts)
	}
}

func TestOperatorRowSanitizesBadInputs(t *testing.T) {
	op := &scopesim.Operator{
		Kind:         scopesim.OpFilter,
		Partitioning: scopesim.PartitionHash,
		Est: scopesim.OpMetrics{
			OutputCardinality: -5,
			AvgRowLength:      math.NaN(),
			NumPartitions:     -3,
		},
	}
	for i, v := range OperatorRow(op) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d not finite: %v", i, v)
		}
		if i < 10 && v < 0 {
			t.Fatalf("feature %d negative: %v", i, v)
		}
	}
}

func TestOperatorMatrixShape(t *testing.T) {
	j := sampleJob(t)
	m := OperatorMatrix(j)
	if m.Rows != j.NumOperators() || m.Cols != OperatorDim {
		t.Fatalf("matrix %dx%d, want %dx%d", m.Rows, m.Cols, j.NumOperators(), OperatorDim)
	}
}

func TestJobVectorAggregation(t *testing.T) {
	j := sampleJob(t)
	v := JobVector(j)
	if len(v) != JobDim {
		t.Fatalf("vector length %d, want %d", len(v), JobDim)
	}
	// Categorical frequency counts must sum to the operator count for
	// each family (every operator has exactly one kind and one method).
	base := 10
	var kindSum, partSum float64
	for k := 0; k < scopesim.NumOpKinds; k++ {
		kindSum += v[base+k]
	}
	for p := 0; p < scopesim.NumPartitionMethods; p++ {
		partSum += v[base+scopesim.NumOpKinds+p]
	}
	if int(kindSum) != j.NumOperators() || int(partSum) != j.NumOperators() {
		t.Fatalf("frequency sums %v/%v, want %d", kindSum, partSum, j.NumOperators())
	}
	if v[JobDim-2] != float64(j.NumOperators()) || v[JobDim-1] != float64(j.NumStages()) {
		t.Fatalf("op/stage counts wrong: %v %v", v[JobDim-2], v[JobDim-1])
	}
}

func TestJobVectorEmptyJob(t *testing.T) {
	v := JobVector(&scopesim.Job{})
	for i, x := range v {
		if x != 0 {
			t.Fatalf("empty job feature %d = %v", i, x)
		}
	}
}

// TestJobVectorUsesEstimatesOnly guards the compile-time boundary: an
// operator's only metrics are the optimizer's estimates, so features
// cannot read execution-time values, and the job vector ignores the
// submission metadata a recurring job changes on every run.
func TestJobVectorUsesEstimatesOnly(t *testing.T) {
	op := reflect.TypeOf(scopesim.Operator{})
	var metrics []string
	for i := 0; i < op.NumField(); i++ {
		if f := op.Field(i); f.Type == reflect.TypeOf(scopesim.OpMetrics{}) {
			metrics = append(metrics, f.Name)
		}
	}
	if len(metrics) != 1 || metrics[0] != "Est" {
		t.Fatalf("scopesim.Operator holds OpMetrics fields %v, want only Est", metrics)
	}

	j := sampleJob(t)
	before := JobVector(j)
	j.ID = "another-run"
	j.VirtualCluster = "vc-other"
	j.SubmitTime = j.SubmitTime.Add(72 * time.Hour)
	after := JobVector(j)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("feature %d moved with the job's ID, cluster or submit time", i)
		}
	}
}

func TestJobMatrix(t *testing.T) {
	g := workload.New(workload.TestConfig(2))
	jobs := g.Workload(5)
	m := JobMatrix(jobs)
	if m.Rows != 5 || m.Cols != JobDim {
		t.Fatalf("job matrix %dx%d", m.Rows, m.Cols)
	}
	for i, j := range jobs {
		want := JobVector(j)
		for c, v := range m.Row(i) {
			if v != want[c] {
				t.Fatalf("row %d col %d mismatch", i, c)
			}
		}
	}
}

func TestNormalizedAdjacency(t *testing.T) {
	j := sampleJob(t)
	a := NormalizedAdjacency(j)
	n := j.NumOperators()
	if a.Rows != n || a.Cols != n {
		t.Fatalf("adjacency %dx%d, want %dx%d", a.Rows, a.Cols, n, n)
	}
	for i := 0; i < n; i++ {
		if a.At(i, i) <= 0 {
			t.Fatalf("missing self-loop at %d", i)
		}
		for k := 0; k < n; k++ {
			if a.At(i, k) < 0 || a.At(i, k) > 1+1e-12 {
				t.Fatalf("entry (%d,%d) = %v out of [0,1]", i, k, a.At(i, k))
			}
			if math.Abs(a.At(i, k)-a.At(k, i)) > 1e-12 {
				t.Fatalf("adjacency not symmetric at (%d,%d)", i, k)
			}
		}
	}
	// The row sums of Â for a normalized graph are ≤ ~1 (exactly 1 for a
	// regular graph); check eigen-boundedness loosely via max row sum.
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < n; k++ {
			s += a.At(i, k)
		}
		if s > float64(n) {
			t.Fatalf("row %d sum %v implausible", i, s)
		}
	}
}

func TestNormalizedAdjacencyIsolatedNode(t *testing.T) {
	j := &scopesim.Job{
		Stages: []scopesim.Stage{{ID: 0, Tasks: 1, TaskSeconds: 1, Operators: []int32{0}}},
		Operators: []scopesim.Operator{
			{ID: 0, Kind: scopesim.OpExtract, Partitioning: scopesim.PartitionHash, Stage: 0},
		},
	}
	a := NormalizedAdjacency(j)
	if a.At(0, 0) != 1 {
		t.Fatalf("isolated node self-loop = %v, want 1", a.At(0, 0))
	}
}

// stackedScaler is how the scalers were fitted before the fits streamed:
// one FitStandardizer per column of the stacked design matrix. It is the
// reference FitJobScaler and FitOperatorScaler must match bit for bit.
func stackedScaler(m *linalg.Matrix) *Scaler {
	s := &Scaler{Cols: make([]stats.Standardizer, m.Cols)}
	for c := range s.Cols {
		s.Cols[c] = stats.FitStandardizer(m.Col(c))
	}
	return s
}

// stackedOperatorRows stacks every job's operator rows into one matrix,
// job by job.
func stackedOperatorRows(jobs []*scopesim.Job) *linalg.Matrix {
	var total int
	for _, j := range jobs {
		total += len(j.Operators)
	}
	out := linalg.New(total, OperatorDim)
	row := 0
	for _, j := range jobs {
		for i := range j.Operators {
			copy(out.Row(row), OperatorRow(&j.Operators[i]))
			row++
		}
	}
	return out
}

func TestScalerRoundTripAndTransform(t *testing.T) {
	g := workload.New(workload.TestConfig(4))
	m := JobMatrix(g.Workload(50))
	s := stackedScaler(m)
	z := m.Clone()
	s.ApplyMatrix(z)
	// Each standardized column has ~zero mean.
	for c := 0; c < z.Cols; c++ {
		col := z.Col(c)
		var mean float64
		for _, v := range col {
			mean += v
		}
		mean /= float64(len(col))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v after standardization", c, mean)
		}
	}
	// Apply on one row agrees with ApplyMatrix.
	row := append([]float64(nil), m.Row(0)...)
	s.Apply(row)
	for c, v := range row {
		if math.Abs(v-z.At(0, c)) > 1e-12 {
			t.Fatalf("Apply disagrees at col %d", c)
		}
	}
}

// sameScaler fails unless every column's Mean and Std agree by bits.
func sameScaler(t *testing.T, what string, got, want *Scaler) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d columns, want %d", what, len(got.Cols), len(want.Cols))
	}
	for c := range want.Cols {
		g, w := got.Cols[c], want.Cols[c]
		if math.Float64bits(g.Mean) != math.Float64bits(w.Mean) || math.Float64bits(g.Std) != math.Float64bits(w.Std) {
			t.Fatalf("%s: column %d streamed %+v, stacked %+v", what, c, g, w)
		}
	}
}

func fitBoth(t *testing.T, what string, jobs []*scopesim.Job) (job, op *Scaler) {
	t.Helper()
	job, op = FitJobScaler(jobs), FitOperatorScaler(jobs)
	sameScaler(t, what+" job scaler", job, stackedScaler(JobMatrix(jobs)))
	sameScaler(t, what+" operator scaler", op, stackedScaler(stackedOperatorRows(jobs)))
	return job, op
}

func TestStreamedScalerFitMatchesStackedFit(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		fitBoth(t, fmt.Sprintf("seed %d", seed), workload.New(workload.TestConfig(seed)).Workload(120))
	}

	t.Run("all-ad-hoc", func(t *testing.T) {
		cfg := workload.TestConfig(5)
		cfg.AdHocFraction = 1
		jobs := workload.New(cfg).Workload(80)
		for _, j := range jobs {
			if j.Template != "" {
				t.Fatalf("job %s is recurring (template %q)", j.ID, j.Template)
			}
		}
		fitBoth(t, "all ad-hoc", jobs)
	})

	t.Run("constant-columns", func(t *testing.T) {
		// Copies of one job: every job-level column is constant, so every
		// Std is 1.
		j := sampleJob(t)
		job, _ := fitBoth(t, "constant", []*scopesim.Job{j, j, j})
		for c, col := range job.Cols {
			if col.Std != 1 {
				t.Fatalf("constant column %d: Std %v, want 1", c, col.Std)
			}
		}
	})

	t.Run("single-operator", func(t *testing.T) {
		// One operator row: n < 2, so the variance is 0 and every Std 1.
		j := &scopesim.Job{ID: "one", Operators: []scopesim.Operator{
			{ID: 0, Kind: scopesim.OpExtract, Partitioning: scopesim.PartitionHash,
				Est: scopesim.OpMetrics{OutputCardinality: 1e6, TotalCost: 3}},
		}}
		_, op := fitBoth(t, "single operator", []*scopesim.Job{j})
		for c, col := range op.Cols {
			if col.Std != 1 {
				t.Fatalf("single-operator column %d: Std %v, want 1", c, col.Std)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		fitBoth(t, "empty", nil)
	})
}

// The fits hold one row at a time, so what they allocate must not grow
// with the number of jobs.
func TestStreamedScalerFitAllocsIndependentOfSize(t *testing.T) {
	all := workload.New(workload.TestConfig(7)).Workload(1000)
	allocs := func(jobs []*scopesim.Job) float64 {
		return testing.AllocsPerRun(5, func() {
			FitJobScaler(jobs)
			FitOperatorScaler(jobs)
		})
	}
	small, large := allocs(all[:10]), allocs(all)
	if small != large {
		t.Fatalf("fitting 10 jobs makes %.0f allocations, 1,000 jobs %.0f", small, large)
	}
}

func TestScalerDimensionMismatchPanics(t *testing.T) {
	s := &Scaler{}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ApplyMatrix(linalg.New(1, 3))
}

// The Fill* functions write features in place; these are the allocating
// definitions they replaced (one fresh row per operator, degrees summed
// over the dense matrix), kept as the reference the in-place forms must
// match bit for bit — the serving path's curves are compared by bits.

func refJobVector(job *scopesim.Job) []float64 {
	out := make([]float64, JobDim)
	n := len(job.Operators)
	if n == 0 {
		return out
	}
	for i := range job.Operators {
		row := OperatorRow(&job.Operators[i])
		for c := 0; c < numContinuous+numDiscrete; c++ {
			out[c] += row[c]
		}
		for c := numContinuous + numDiscrete; c < OperatorDim; c++ {
			out[c] += row[c]
		}
	}
	for c := 0; c < numContinuous+numDiscrete; c++ {
		out[c] /= float64(n)
	}
	out[JobDim-2] = float64(job.NumOperators())
	out[JobDim-1] = float64(job.NumStages())
	return out
}

func refNormalizedAdjacency(job *scopesim.Job) *linalg.Matrix {
	n := len(job.Operators)
	a := linalg.New(n, n)
	for i := range job.Operators {
		a.Set(i, i, 1)
		for _, c := range job.Operators[i].Children {
			if c >= 0 && int(c) < n {
				a.Set(i, int(c), 1)
				a.Set(int(c), i, 1)
			}
		}
	}
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			deg[i] += a.At(i, j)
		}
	}
	for i := 0; i < n; i++ {
		di := 1 / math.Sqrt(deg[i])
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				a.Set(i, j, v*di/math.Sqrt(deg[j]))
			}
		}
	}
	return a
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestFillMatchesAllocatingReference(t *testing.T) {
	jobs := workload.New(workload.TestConfig(9)).Workload(200)
	// Edges the generator never emits: duplicates, both directions of one
	// pair, a self-loop and out-of-range children.
	odd := *jobs[0]
	odd.Operators = append([]scopesim.Operator(nil), odd.Operators...)
	odd.Operators[0].Children = []int32{1, 1, 0, -3, int32(len(odd.Operators))}
	odd.Operators[1].Children = []int32{0, 2}
	jobs = append(jobs, &odd, &scopesim.Job{ID: "empty"})

	for _, job := range jobs {
		n := len(job.Operators)
		// Dirty destinations: Fill must overwrite, not accumulate.
		vec := make([]float64, JobDim)
		ops, adj := linalg.New(n, OperatorDim), linalg.New(n, n)
		for _, dst := range [][]float64{vec, ops.Data, adj.Data} {
			for i := range dst {
				dst[i] = math.NaN()
			}
		}
		FillJobVector(vec, job)
		sameBits(t, job.ID+" job vector", vec, refJobVector(job))

		FillOperatorMatrix(ops, job)
		for i := range job.Operators {
			sameBits(t, job.ID+" operator row", ops.Row(i), OperatorRow(&job.Operators[i]))
		}

		FillNormalizedAdjacency(adj, job)
		sameBits(t, job.ID+" adjacency", adj.Data, refNormalizedAdjacency(job).Data)
	}
}

func TestScalerInPlaceMatchesColumnTransform(t *testing.T) {
	m := OperatorMatrix(sampleJob(t))
	s := stackedScaler(m)
	want := linalg.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for c := 0; c < m.Cols; c++ {
			want.Set(i, c, s.Cols[c].Transform(m.At(i, c)))
		}
	}
	got := m.Clone()
	s.ApplyMatrix(got)
	sameBits(t, "matrix scaled in place", got.Data, want.Data)
	row := append([]float64(nil), m.Row(0)...)
	s.Apply(row)
	sameBits(t, "row scaled in place", row, want.Row(0))
}
