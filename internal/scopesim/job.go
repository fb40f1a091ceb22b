package scopesim

import (
	"fmt"
	"time"
)

// Stage is a unit of scheduling: a set of pipelined operators executed as
// Tasks parallel tasks, each taking TaskSeconds of one token. A stage may
// start only after all stages in Deps have finished — the barrier structure
// that carves valleys into job skylines.
type Stage struct {
	ID          int32
	Tasks       int32   // number of parallel tasks (the stage's width)
	TaskSeconds int     // work per task, in token-seconds
	Deps        []int32 // stage IDs that must complete first
	Operators   []int32 // operator IDs pipelined into this stage
}

// Job is one SCOPE job: a DAG of operators grouped into stages, plus the
// submission metadata TASQ's pipeline ingests.
type Job struct {
	ID             string
	Template       string // recurring-job template name ("" for ad-hoc)
	VirtualCluster string
	SubmitTime     time.Time
	Operators      []Operator
	Stages         []Stage
	// RequestedTokens is the user's token request — the guaranteed
	// allocation the job ran with (the paper's "reference" token count).
	RequestedTokens int
}

// Validate checks the job's structural invariants: operator and stage IDs
// are their indices, edges reference valid nodes, the stage graph is
// acyclic, and every stage has positive work.
func (j *Job) Validate() error {
	for i, op := range j.Operators {
		if int(op.ID) != i {
			return fmt.Errorf("scopesim: job %s: operator %d has ID %d", j.ID, i, op.ID)
		}
		if !op.Kind.Valid() {
			return fmt.Errorf("scopesim: job %s: operator %d has invalid kind %d", j.ID, i, int(op.Kind))
		}
		if !op.Partitioning.Valid() {
			return fmt.Errorf("scopesim: job %s: operator %d has invalid partitioning %d", j.ID, i, int(op.Partitioning))
		}
		if op.Stage < 0 || int(op.Stage) >= len(j.Stages) {
			return fmt.Errorf("scopesim: job %s: operator %d assigned to stage %d of %d", j.ID, i, op.Stage, len(j.Stages))
		}
		for _, c := range op.Children {
			if c < 0 || int(c) >= len(j.Operators) {
				return fmt.Errorf("scopesim: job %s: operator %d has child %d out of range", j.ID, i, c)
			}
			if int(c) == i {
				return fmt.Errorf("scopesim: job %s: operator %d is its own child", j.ID, i)
			}
		}
	}
	for i, st := range j.Stages {
		if int(st.ID) != i {
			return fmt.Errorf("scopesim: job %s: stage %d has ID %d", j.ID, i, st.ID)
		}
		if st.Tasks < 1 {
			return fmt.Errorf("scopesim: job %s: stage %d has %d tasks", j.ID, i, st.Tasks)
		}
		if st.TaskSeconds < 1 {
			return fmt.Errorf("scopesim: job %s: stage %d has task seconds %d", j.ID, i, st.TaskSeconds)
		}
		for _, d := range st.Deps {
			if d < 0 || int(d) >= len(j.Stages) {
				return fmt.Errorf("scopesim: job %s: stage %d depends on %d out of range", j.ID, i, d)
			}
			if int(d) == i {
				return fmt.Errorf("scopesim: job %s: stage %d depends on itself", j.ID, i)
			}
		}
	}
	if _, err := j.StageOrder(); err != nil {
		return err
	}
	return nil
}

// StageOrder returns a topological order of the stage DAG, or an error if
// it contains a cycle.
func (j *Job) StageOrder() ([]int, error) {
	n := len(j.Stages)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, st := range j.Stages {
		indeg[i] = len(st.Deps)
		for _, d := range st.Deps {
			if d >= 0 && int(d) < n {
				dependents[d] = append(dependents[d], i)
			}
		}
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		order = append(order, s)
		for _, dep := range dependents[s] {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("scopesim: job %s: stage graph has a cycle", j.ID)
	}
	return order, nil
}

// TotalWork returns the job's total token-seconds of work across stages —
// the area a perfectly packed execution would occupy.
func (j *Job) TotalWork() int {
	var w int
	for _, st := range j.Stages {
		w += int(st.Tasks) * st.TaskSeconds
	}
	return w
}

// PeakParallelism returns the widest stage — the most tokens the job can
// put to use at one instant when stages do not overlap. Concurrent sibling
// stages can push instantaneous usage above this, so it is a heuristic
// lower bound on the allocation at which adding tokens stops helping.
func (j *Job) PeakParallelism() int {
	var p int
	for _, st := range j.Stages {
		if int(st.Tasks) > p {
			p = int(st.Tasks)
		}
	}
	return p
}

// CriticalPathSeconds returns the run time with unlimited tokens: the
// longest dependency chain of per-stage durations (each stage finishes in
// TaskSeconds when every task runs at once).
func (j *Job) CriticalPathSeconds() (int, error) {
	order, err := j.StageOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]int, len(j.Stages))
	var makespan int
	for _, s := range order {
		start := 0
		for _, d := range j.Stages[s].Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[s] = start + j.Stages[s].TaskSeconds
		if finish[s] > makespan {
			makespan = finish[s]
		}
	}
	return makespan, nil
}

// AdjacencyMatrix returns the operator DAG as a dense 0/1 matrix where
// entry (i, j) = 1 means operator j feeds operator i. This is the graph
// representation the GNN consumes (§4.3).
func (j *Job) AdjacencyMatrix() [][]float64 {
	n := len(j.Operators)
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = make([]float64, n)
	}
	for i, op := range j.Operators {
		for _, c := range op.Children {
			if c >= 0 && int(c) < n {
				adj[i][c] = 1
			}
		}
	}
	return adj
}

// NumOperators returns the operator count (a job-level feature).
func (j *Job) NumOperators() int { return len(j.Operators) }

// NumStages returns the stage count (a job-level feature).
func (j *Job) NumStages() int { return len(j.Stages) }

// Anonymize strips identifying metadata in place, mirroring the paper's
// anonymization of the 85K-job training workload (§5): the template and
// virtual-cluster names are replaced by opaque tags derived from ordinals.
func (j *Job) Anonymize(ordinal int) {
	j.ID = fmt.Sprintf("job-%06d", ordinal)
	if j.Template != "" {
		j.Template = fmt.Sprintf("template-%06d", hashString(j.Template)%1_000_000)
	}
	j.VirtualCluster = fmt.Sprintf("vc-%03d", hashString(j.VirtualCluster)%1000)
}

// hashString is a small FNV-1a, kept local to avoid importing hash/fnv for
// one call site.
func hashString(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
