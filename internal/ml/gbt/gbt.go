// Package gbt implements gradient-boosted regression trees in the style of
// XGBoost (Chen & Guestrin), the paper's point-prediction baseline (§4.4):
// second-order (Newton) boosting with histogram-based split finding,
// shrinkage, row subsampling and a minimum child hessian. Two objectives
// are provided: squared error and the Gamma deviance with log link the
// paper uses for run-time regression ("Gamma regression trees").
package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tasq/internal/ml/linalg"
)

// Objective selects the boosting loss.
type Objective int

// Supported objectives.
const (
	// Squared is ordinary least-squares boosting on the identity link.
	Squared Objective = iota
	// Gamma is Gamma-deviance boosting with a log link: predictions are
	// exp(score), appropriate for positive, right-skewed targets such as
	// run times.
	Gamma
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case Gamma:
		return "gamma"
	default:
		return "squared"
	}
}

// Config controls training. DefaultConfig states every default; Train
// refuses a value that means nothing rather than substituting one.
type Config struct {
	NumTrees     int     // boosting rounds, at least 1
	MaxDepth     int     // maximum tree depth, at least 1
	LearningRate float64 // shrinkage, positive
	Subsample    float64 // row subsampling per tree, in (0, 1]
	MaxBins      int     // histogram bins per feature, at least 2
	Objective    Objective
	Seed         int64
}

// The split rule's regularization, fixed at the values every model trains
// with: no L2 penalty on leaf values and no minimum split gain, only a
// minimum hessian sum per child.
const (
	minChildWeight float64 = 1
	lambda         float64 = 0
	gamma          float64 = 0
)

// DefaultConfig returns 100 rounds of depth-6 trees at learning rate 0.1
// over every row and 32 bins, with the squared objective and seed 0.
func DefaultConfig() Config {
	return Config{NumTrees: 100, MaxDepth: 6, LearningRate: 0.1, Subsample: 1, MaxBins: 32}
}

func (c Config) validate() error {
	switch {
	case c.NumTrees < 1:
		return fmt.Errorf("gbt: trees %d: must be at least 1", c.NumTrees)
	case c.MaxDepth < 1:
		return fmt.Errorf("gbt: max depth %d: must be at least 1", c.MaxDepth)
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1):
		return fmt.Errorf("gbt: learning rate %v: must be positive and finite", c.LearningRate)
	case !(c.Subsample > 0 && c.Subsample <= 1):
		return fmt.Errorf("gbt: subsample %v: must be in (0, 1]", c.Subsample)
	case c.MaxBins < 2:
		return fmt.Errorf("gbt: max bins %d: must be at least 2", c.MaxBins)
	}
	return nil
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indices into the tree's node slice
	right     int
	value     float64 // leaf output (raw score contribution)
}

type tree struct {
	nodes []node
}

func (t *tree) predict(row []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if row[n.feature] < n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a trained ensemble.
type Model struct {
	cfg   Config
	base  float64 // initial raw score
	trees []*tree
}

// NumTrees returns the number of boosted trees.
func (m *Model) NumTrees() int { return len(m.trees) }

// Train fits an ensemble on design matrix x (n x p) and targets y.
// Gamma objective requires strictly positive targets.
func Train(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, p := x.Rows, x.Cols
	if n == 0 || p == 0 {
		return nil, fmt.Errorf("gbt: empty design matrix %dx%d", n, p)
	}
	if len(y) != n {
		return nil, fmt.Errorf("gbt: %d targets for %d rows", len(y), n)
	}
	if cfg.Objective == Gamma {
		for i, v := range y {
			if v <= 0 {
				return nil, fmt.Errorf("gbt: gamma objective needs positive targets, y[%d]=%v", i, v)
			}
		}
	}

	m := &Model{cfg: cfg}
	// Base score: mean for squared loss; log-mean for gamma's log link.
	var sum float64
	for _, v := range y {
		sum += v
	}
	mean := sum / float64(n)
	if cfg.Objective == Gamma {
		m.base = math.Log(mean)
	} else {
		m.base = mean
	}

	// Histogram binning: per-feature quantile edges, with per-sample bin
	// indices computed once.
	bins := newBinning(x, cfg.MaxBins)

	rng := rand.New(rand.NewSource(cfg.Seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = m.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rows := make([]int, n)
	spill := make([]int, n) // growTree's partition spill area, reused by every tree

	for round := 0; round < cfg.NumTrees; round++ {
		computeGradients(cfg.Objective, y, scores, grad, hess)
		rows = rows[:0]
		if cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < cfg.Subsample {
					rows = append(rows, i)
				}
			}
			if len(rows) == 0 {
				rows = append(rows, rng.Intn(n))
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}
		tr := growTree(bins, grad, hess, rows, spill, cfg)
		m.trees = append(m.trees, tr)
		for i := 0; i < n; i++ {
			scores[i] += cfg.LearningRate * tr.predict(x.Row(i))
		}
	}
	return m, nil
}

// computeGradients fills first and second derivatives of the loss w.r.t.
// the raw score.
func computeGradients(obj Objective, y, scores, grad, hess []float64) {
	switch obj {
	case Gamma:
		// Negative log-likelihood of Gamma with log link:
		// l = y·e^{−F} + F; g = 1 − y·e^{−F}; h = y·e^{−F}.
		for i := range y {
			e := y[i] * math.Exp(-scores[i])
			grad[i] = 1 - e
			hess[i] = e
			if hess[i] < 1e-9 {
				hess[i] = 1e-9
			}
		}
	default:
		for i := range y {
			grad[i] = scores[i] - y[i]
			hess[i] = 1
		}
	}
}

// Predict returns the model output for one feature row (the response
// scale: exp(score) under the Gamma objective).
func (m *Model) Predict(row []float64) float64 {
	score := m.base
	for _, t := range m.trees {
		score += m.cfg.LearningRate * t.predict(row)
	}
	if m.cfg.Objective == Gamma {
		return math.Exp(score)
	}
	return score
}

// PredictBatch evaluates every row of x.
func (m *Model) PredictBatch(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = m.Predict(x.Row(i))
	}
	return out
}

// binning holds per-feature quantile bin edges and binned sample values.
type binning struct {
	x     *linalg.Matrix
	edges [][]float64 // per feature: ascending interior split candidates
	codes [][]uint16  // per feature: bin index per sample
}

// newBinning reads each feature column of x in place and sorts it in one
// buffer reused across features.
func newBinning(x *linalg.Matrix, maxBins int) *binning {
	n, p := x.Rows, x.Cols
	b := &binning{x: x, edges: make([][]float64, p), codes: make([][]uint16, p)}
	sorted := make([]float64, n)
	for f := 0; f < p; f++ {
		for i := range sorted {
			sorted[i] = x.At(i, f)
		}
		sort.Float64s(sorted)
		// Candidate edges at quantiles, deduplicated.
		var edges []float64
		for k := 1; k < maxBins; k++ {
			q := sorted[k*(n-1)/maxBins]
			if len(edges) == 0 || q > edges[len(edges)-1] {
				edges = append(edges, q)
			}
		}
		b.edges[f] = edges
		// Bin index = number of edges strictly below the value, so bin k
		// holds values in (edges[k−1], edges[k]].
		codes := make([]uint16, n)
		for i := range codes {
			v := x.At(i, f)
			lo, hi := 0, len(edges)
			for lo < hi {
				mid := (lo + hi) / 2
				if edges[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			codes[i] = uint16(lo)
		}
		b.codes[f] = codes
	}
	return b
}

// growTree builds one regression tree on the gradient statistics of the
// given rows using histogram split finding. It reorders rows: every split
// partitions its node's stretch of the slice in place, stably, so a child
// sums its rows in the order a freshly appended slice would hold them.
func growTree(b *binning, grad, hess []float64, rows, spill []int, cfg Config) *tree {
	t := &tree{}
	// One histogram pair and the caller's partition spill area serve every
	// node of the tree: a node is done with both before it recurses.
	maxBins := 0
	for _, edges := range b.edges {
		maxBins = max(maxBins, len(edges)+1)
	}
	hist := make([]float64, 2*maxBins)
	var build func(rows []int, depth int) int
	build = func(rows []int, depth int) int {
		var gSum, hSum float64
		for _, r := range rows {
			gSum += grad[r]
			hSum += hess[r]
		}
		leafValue := -gSum / (hSum + lambda)
		idx := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: -1, value: leafValue})
		if depth >= cfg.MaxDepth || len(rows) < 2 {
			return idx
		}

		bestGain := gamma
		bestFeature, bestBin := -1, -1
		parentScore := gSum * gSum / (hSum + lambda)
		p := len(b.edges)
		for f := 0; f < p; f++ {
			edges := b.edges[f]
			if len(edges) == 0 {
				continue
			}
			nb := len(edges) + 1
			histG, histH := hist[:nb], hist[maxBins:maxBins+nb]
			clear(histG)
			clear(histH)
			codes := b.codes[f]
			for _, r := range rows {
				c := codes[r]
				histG[c] += grad[r]
				histH[c] += hess[r]
			}
			var gl, hl float64
			for bin := 0; bin < nb-1; bin++ {
				gl += histG[bin]
				hl += histH[bin]
				gr := gSum - gl
				hr := hSum - hl
				if hl < minChildWeight || hr < minChildWeight {
					continue
				}
				gain := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parentScore)
				if gain > bestGain {
					bestGain = gain
					bestFeature = f
					bestBin = bin
				}
			}
		}
		if bestFeature < 0 {
			return idx
		}

		threshold := b.edges[bestFeature][bestBin]
		// Left rows close ranks at the front (the write index never passes
		// the read index), right rows wait in spill and follow them.
		nl, nr := 0, 0
		codes := b.codes[bestFeature]
		for _, r := range rows {
			if int(codes[r]) <= bestBin {
				rows[nl] = r
				nl++
			} else {
				spill[nr] = r
				nr++
			}
		}
		if nl == 0 || nr == 0 {
			return idx
		}
		copy(rows[nl:], spill[:nr])
		left, right := rows[:nl], rows[nl:]
		t.nodes[idx].feature = bestFeature
		// Values strictly below the edge go left at prediction time; the
		// bin boundary is the first value above the edge, so nudge the
		// stored threshold just past the edge to keep binning and
		// prediction consistent (bin ≤ bestBin ⇔ value ≤ edge).
		t.nodes[idx].threshold = math.Nextafter(threshold, math.Inf(1))
		t.nodes[idx].left = build(left, depth+1)
		t.nodes[idx].right = build(right, depth+1)
		return idx
	}
	build(rows, 0)
	return t
}
