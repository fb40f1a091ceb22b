// Package scopesim is the SCOPE-like execution substrate this reproduction
// runs on, standing in for Microsoft's Cosmos platform (see DESIGN.md's
// substitution table). It models jobs as DAGs of physical operators grouped
// into stages, carries the compile-time operator metadata of the paper's
// Table 1 (the noisy estimates a query optimizer would produce), and
// executes jobs on a token-based cluster scheduler that runs each stage's
// tasks and yields per-second resource skylines — the ground truth that
// AREPAS and the ML models are measured against.
package scopesim

import "fmt"

// OpKind identifies one of the 35 physical operator types of SCOPE
// (J. Zhou et al., §4.4/§5.2), the vocabulary of the paper's categorical
// features. It is signed and 16-bit, which costs an Operator nothing over
// 8 bits, so a kind outside the 35 still decodes and fails Validate.
type OpKind int16

// The physical operators. NumOpKinds is the one-hot dimension.
const (
	OpExtract OpKind = iota
	OpTableScan
	OpIndexLookup
	OpFilter
	OpProject
	OpProcess
	OpReduce
	OpCombine
	OpHashJoin
	OpMergeJoin
	OpNestedLoopJoin
	OpCrossJoin
	OpSemiJoin
	OpAntiSemiJoin
	OpHashGroupBy
	OpStreamGroupBy
	OpAggregate
	OpLocalAggregate
	OpGlobalAggregate
	OpSort
	OpTopSort
	OpWindow
	OpExchange
	OpBroadcastOp
	OpHashPartitionOp
	OpRangePartitionOp
	OpSplit
	OpSpool
	OpUnion
	OpUnionAll
	OpIntersect
	OpExcept
	OpView
	OpOutput
	OpUserDefined

	NumOpKinds = int(OpUserDefined) + 1
)

var opKindNames = [...]string{
	"Extract", "TableScan", "IndexLookup", "Filter", "Project", "Process",
	"Reduce", "Combine", "HashJoin", "MergeJoin", "NestedLoopJoin",
	"CrossJoin", "SemiJoin", "AntiSemiJoin", "HashGroupBy", "StreamGroupBy",
	"Aggregate", "LocalAggregate", "GlobalAggregate", "Sort", "TopSort",
	"Window", "Exchange", "Broadcast", "HashPartition", "RangePartition",
	"Split", "Spool", "Union", "UnionAll", "Intersect", "Except", "View",
	"Output", "UserDefined",
}

// String returns the operator's SCOPE-style name.
func (k OpKind) String() string {
	if k < 0 || int(k) >= NumOpKinds {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// Valid reports whether k names a real operator.
func (k OpKind) Valid() bool { return k >= 0 && int(k) < NumOpKinds }

// CostWeight returns a relative per-row processing weight for the operator
// kind, used by the workload generator to derive task durations: joins and
// sorts are heavier than scans and projections.
func (k OpKind) CostWeight() float64 {
	switch k {
	case OpHashJoin, OpMergeJoin, OpSort, OpTopSort, OpWindow:
		return 3.0
	case OpNestedLoopJoin, OpCrossJoin:
		return 5.0
	case OpHashGroupBy, OpStreamGroupBy, OpAggregate, OpGlobalAggregate, OpReduce, OpCombine:
		return 2.0
	case OpExchange, OpBroadcastOp, OpHashPartitionOp, OpRangePartitionOp, OpSplit:
		return 1.5
	case OpUserDefined, OpProcess:
		return 4.0
	default:
		return 1.0
	}
}

// PartitionMethod is one of SCOPE's four data-partitioning schemes, the
// second categorical feature family of Table 1.
type PartitionMethod int8

// The partitioning methods. NumPartitionMethods is the one-hot dimension.
const (
	PartitionHash PartitionMethod = iota
	PartitionRange
	PartitionRoundRobin
	PartitionBroadcast

	NumPartitionMethods = int(PartitionBroadcast) + 1
)

var partitionNames = [...]string{"Hash", "Range", "RoundRobin", "Broadcast"}

// String returns the method's name.
func (p PartitionMethod) String() string {
	if p < 0 || int(p) >= NumPartitionMethods {
		return fmt.Sprintf("PartitionMethod(%d)", int(p))
	}
	return partitionNames[p]
}

// Valid reports whether p names a real partitioning method.
func (p PartitionMethod) Valid() bool { return p >= 0 && int(p) < NumPartitionMethods }

// OpMetrics carries the per-operator quantities of the paper's Table 1,
// as the query optimizer estimates them at compile time: all a model may
// see of an operator.
type OpMetrics struct {
	// Continuous features.
	OutputCardinality        float64 // estimated rows produced
	LeafInputCardinality     float64 // rows read from inputs at DAG leaves below this operator
	ChildrenInputCardinality float64 // rows arriving from direct children
	AvgRowLength             float64 // bytes per row
	SubtreeCost              float64 // cost of this operator's whole subtree
	ExclusiveCost            float64 // this operator's own cost
	TotalCost                float64 // cumulative cost including this operator

	// Discrete features.
	NumPartitions          int32 // degree of data parallelism
	NumPartitioningColumns int32
	NumSortColumns         int32
}

// Operator is one node of a SCOPE job's physical execution DAG. Its
// integers are as narrow as their values (DESIGN.md, "Held jobs"), since
// history holds many jobs; widen them to int before any sum or product.
type Operator struct {
	ID           int32
	Kind         OpKind
	Partitioning PartitionMethod
	// Children are the IDs of operators feeding this one (edges point
	// child → parent in dataflow order).
	Children []int32
	// Stage is the index of the job stage this operator is pipelined into.
	Stage int32
	// Est holds the compile-time estimates, the featurization input. The
	// executor never reads them: it runs the job's Stages.
	Est OpMetrics
}
