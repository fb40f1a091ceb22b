// Package features implements TASQ's featurization (§4.3, Tables 1–2).
// Three representations are produced from a job's compile-time metadata:
//
//   - an operator-level feature matrix (N x OperatorDim) for the GNN,
//   - an aggregated job-level vector (JobDim) for XGBoost and the NN
//     (continuous/count features aggregated by mean, categorical features
//     by frequency count, plus operator and stage counts), and
//   - the operator DAG's adjacency matrix, normalized for graph
//     convolutions.
//
// Heavy-tailed continuous quantities (cardinalities, costs) enter as
// log1p; a Scaler fitted on training data standardizes columns so neither
// models nor losses are dominated by large-magnitude features. Only
// estimated (Est) metrics are used — true values are execution-time
// knowledge the models must never see.
package features

import (
	"math"

	"tasq/internal/ml/linalg"
	"tasq/internal/scopesim"
	"tasq/internal/stats"
)

// Dimensions of the feature representations.
const (
	numContinuous = 7 // Table 1 continuous features
	numDiscrete   = 3 // Table 1 discrete features

	// OperatorDim is the per-operator feature dimension: continuous +
	// discrete + one-hot operator kind + one-hot partitioning method.
	OperatorDim = numContinuous + numDiscrete + scopesim.NumOpKinds + scopesim.NumPartitionMethods

	// JobDim is the aggregated job-level dimension: mean continuous +
	// mean discrete + categorical frequency counts + NumOperators +
	// NumStages.
	JobDim = numContinuous + numDiscrete + scopesim.NumOpKinds + scopesim.NumPartitionMethods + 2
)

// OperatorFeatureNames returns human-readable names for the operator-level
// feature columns, index-aligned with OperatorRow.
func OperatorFeatureNames() []string {
	names := []string{
		"log_output_cardinality",
		"log_leaf_input_cardinality",
		"log_children_input_cardinality",
		"log_avg_row_length",
		"log_subtree_cost",
		"log_exclusive_cost",
		"log_total_cost",
		"log_num_partitions",
		"num_partitioning_columns",
		"num_sort_columns",
	}
	for k := 0; k < scopesim.NumOpKinds; k++ {
		names = append(names, "op_"+scopesim.OpKind(k).String())
	}
	for p := 0; p < scopesim.NumPartitionMethods; p++ {
		names = append(names, "part_"+scopesim.PartitionMethod(p).String())
	}
	return names
}

// OperatorRow featurizes a single operator into a vector of OperatorDim.
func OperatorRow(op *scopesim.Operator) []float64 {
	row := make([]float64, OperatorDim)
	fillOperatorRow(row, op)
	return row
}

// fillOperatorRow writes the operator's features into row, which must be
// OperatorDim long and zeroed (only the two hot one-hot slots are set).
func fillOperatorRow(row []float64, op *scopesim.Operator) {
	e := &op.Est
	row[0] = math.Log1p(nonNeg(e.OutputCardinality))
	row[1] = math.Log1p(nonNeg(e.LeafInputCardinality))
	row[2] = math.Log1p(nonNeg(e.ChildrenInputCardinality))
	row[3] = math.Log1p(nonNeg(e.AvgRowLength))
	row[4] = math.Log1p(nonNeg(e.SubtreeCost))
	row[5] = math.Log1p(nonNeg(e.ExclusiveCost))
	row[6] = math.Log1p(nonNeg(e.TotalCost))
	row[7] = math.Log1p(float64(max(e.NumPartitions, 0)))
	row[8] = float64(max(e.NumPartitioningColumns, 0))
	row[9] = float64(max(e.NumSortColumns, 0))
	base := numContinuous + numDiscrete
	if op.Kind.Valid() {
		row[base+int(op.Kind)] = 1
	}
	if op.Partitioning.Valid() {
		row[base+scopesim.NumOpKinds+int(op.Partitioning)] = 1
	}
}

// OperatorMatrix featurizes every operator of the job into an N x
// OperatorDim matrix, row i for operator i — the GNN's node features.
func OperatorMatrix(job *scopesim.Job) *linalg.Matrix {
	m := linalg.New(len(job.Operators), OperatorDim)
	FillOperatorMatrix(m, job)
	return m
}

// FillOperatorMatrix is OperatorMatrix into caller-owned storage: m must
// be len(job.Operators) x OperatorDim; its previous contents are
// overwritten.
func FillOperatorMatrix(m *linalg.Matrix, job *scopesim.Job) {
	if m.Rows != len(job.Operators) || m.Cols != OperatorDim {
		panic("features: operator matrix dimension mismatch")
	}
	clear(m.Data)
	for i := range job.Operators {
		fillOperatorRow(m.Row(i), &job.Operators[i])
	}
}

// JobVector aggregates operator features to the job level (Table 2):
// continuous and count variables by mean, categorical variables by
// frequency count, plus the operator and stage counts.
func JobVector(job *scopesim.Job) []float64 {
	out := make([]float64, JobDim)
	FillJobVector(out, job)
	return out
}

// FillJobVector is JobVector into caller-owned storage: out must be
// JobDim long; its previous contents are overwritten.
func FillJobVector(out []float64, job *scopesim.Job) {
	if len(out) != JobDim {
		panic("features: job vector dimension mismatch")
	}
	clear(out)
	n := len(job.Operators)
	if n == 0 {
		return
	}
	var row [OperatorDim]float64
	for i := range job.Operators {
		row = [OperatorDim]float64{}
		fillOperatorRow(row[:], &job.Operators[i])
		// Continuous and count columns are summed here and averaged
		// below; categorical columns stay frequency counts.
		for c, v := range row[:] {
			out[c] += v
		}
	}
	for c := 0; c < numContinuous+numDiscrete; c++ {
		out[c] /= float64(n)
	}
	out[JobDim-2] = float64(job.NumOperators())
	out[JobDim-1] = float64(job.NumStages())
}

// JobMatrix featurizes a batch of jobs into an n x JobDim design matrix.
func JobMatrix(jobs []*scopesim.Job) *linalg.Matrix {
	m := linalg.New(len(jobs), JobDim)
	for i, j := range jobs {
		copy(m.Row(i), JobVector(j))
	}
	return m
}

// NormalizedAdjacency returns the GCN propagation matrix
// Â = D^{-1/2} (A + Aᵀ + I) D^{-1/2} built from the operator DAG: edges are
// symmetrized (information flows both ways during convolution) and
// self-loops added, following Kipf & Welling's renormalization trick.
func NormalizedAdjacency(job *scopesim.Job) *linalg.Matrix {
	n := len(job.Operators)
	a := linalg.New(n, n)
	FillNormalizedAdjacency(a, job)
	return a
}

// FillNormalizedAdjacency is NormalizedAdjacency into caller-owned
// storage: a must be N x N for the job's N operators; its previous
// contents are overwritten. The work is proportional to the edge list, not
// to N²: while edges are marked, the diagonal counts each node's distinct
// neighbours (itself included), and every marked entry (i, j) then becomes
// (1/√dᵢ)/√dⱼ — the diagonal last, because it holds the degrees until then.
// Assigning a value computed from the degrees alone (never rescaling what
// is there) is what keeps duplicate edges harmless.
func FillNormalizedAdjacency(a *linalg.Matrix, job *scopesim.Job) {
	n := len(job.Operators)
	if a.Rows != n || a.Cols != n {
		panic("features: adjacency dimension mismatch")
	}
	d := a.Data
	clear(d)
	for i := 0; i < n; i++ {
		d[i*n+i] = 1
	}
	for i := range job.Operators {
		for _, c := range job.Operators[i].Children {
			if c < 0 || c >= n || c == i || d[i*n+c] != 0 {
				continue
			}
			d[i*n+c], d[c*n+i] = 1, 1
			d[i*n+i]++
			d[c*n+c]++
		}
	}
	for i := range job.Operators {
		for _, c := range job.Operators[i].Children {
			if c < 0 || c >= n || c == i {
				continue
			}
			di, dc := d[i*n+i], d[c*n+c]
			d[i*n+c] = 1 / math.Sqrt(di) / math.Sqrt(dc)
			d[c*n+i] = 1 / math.Sqrt(dc) / math.Sqrt(di)
		}
	}
	for i := 0; i < n; i++ {
		deg := d[i*n+i] // ≥ 1 thanks to the self-loop
		d[i*n+i] = 1 / math.Sqrt(deg) / math.Sqrt(deg)
	}
}

// Scaler standardizes feature columns using statistics fitted on training
// data. One-hot/frequency columns are standardized too — harmless for
// trees and helpful for gradient-based models.
type Scaler struct {
	Cols []stats.Standardizer
}

// FitScaler computes per-column statistics over a design matrix.
func FitScaler(m *linalg.Matrix) *Scaler {
	s := &Scaler{Cols: make([]stats.Standardizer, m.Cols)}
	for c := 0; c < m.Cols; c++ {
		s.Cols[c] = stats.FitStandardizer(m.Col(c))
	}
	return s
}

// Transform returns a standardized copy of m, which must have the fitted
// column count.
func (s *Scaler) Transform(m *linalg.Matrix) *linalg.Matrix {
	out := m.Clone()
	s.ApplyMatrix(out)
	return out
}

// ApplyMatrix standardizes every row of m in place.
func (s *Scaler) ApplyMatrix(m *linalg.Matrix) {
	if m.Cols != len(s.Cols) {
		panic("features: scaler dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s.Apply(m.Row(i))
	}
}

// TransformRow returns a standardized copy of a single feature vector.
func (s *Scaler) TransformRow(row []float64) []float64 {
	out := append([]float64(nil), row...)
	s.Apply(out)
	return out
}

// Apply standardizes a single feature vector in place.
func (s *Scaler) Apply(row []float64) {
	if len(row) != len(s.Cols) {
		panic("features: scaler dimension mismatch")
	}
	for c, v := range row {
		row[c] = s.Cols[c].Transform(v)
	}
}

func nonNeg(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
