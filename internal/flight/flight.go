// Package flight implements the job-flighting harness of §5.1–5.2: selected
// jobs are re-executed at several token counts in a noisy pre-production
// environment (our ground-truth cluster simulator with environmental
// noise), with redundancy against anomalies, and then filtered by the
// paper's three constraints:
//
//  1. not an isolated flight — at least two successful flights per job,
//  2. max token usage must not exceed the allocation, and
//  3. run time must decrease monotonically with tokens (within tolerance).
//
// The surviving dataset feeds the AREPAS validation (Table 3, Figures 12
// and 13) and the flighted model evaluation (Table 8).
package flight

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tasq/internal/arepas"
	"tasq/internal/jobrepo"
	"tasq/internal/parallel"
	"tasq/internal/scopesim"
	"tasq/internal/skyline"
	"tasq/internal/stats"
)

// Config controls the flighting experiment.
type Config struct {
	// Fractions of the reference (observed) token count to flight at; the
	// paper uses 100%, 80%, 60% and 20%.
	Fractions []float64
	// Redundancy is how many times each unique flight is run; the paper
	// runs each thrice.
	Redundancy int
	// Noise is the environmental noise model for flights.
	Noise scopesim.Noise
	// FailureProb is the per-run probability of a job failure (the run is
	// discarded).
	FailureProb float64
	// OveruseProb is the per-run probability of the errant-usage anomaly
	// where the job uses more than its allocation (filter 2's target).
	OveruseProb float64
	// MonotoneTolerance is filter 3's slack; the paper uses 10%.
	MonotoneTolerance float64
	// Seed makes the experiment reproducible. Each job draws its noise from
	// its own stream, derived from Seed and the job's position in the
	// selection (parallel.Seed), so results do not depend on Workers.
	Seed int64
	// Workers bounds the goroutines flighting jobs concurrently; ≤ 0 means
	// runtime.NumCPU, 1 the serial path. Output is identical either way.
	Workers int
}

// DefaultConfig mirrors the paper's protocol.
func DefaultConfig(seed int64) Config {
	return Config{
		Fractions:         []float64{1.0, 0.8, 0.6, 0.2},
		Redundancy:        3,
		Noise:             scopesim.Noise{Sigma: 0.10, GlobalSigma: 0.05, SlowdownProb: 0.04, SlowdownFactor: 2.5},
		FailureProb:       0.03,
		OveruseProb:       0.02,
		MonotoneTolerance: 0.10,
		Seed:              seed,
	}
}

// Run is one surviving flight: a single execution of a job at a specific
// token allocation (the redundant runs are collapsed to the median-runtime
// run).
type Run struct {
	Tokens         int
	RuntimeSeconds int
	Skyline        skyline.Skyline
}

// JobFlights groups a job's surviving flights, descending by token count.
type JobFlights struct {
	Record *jobrepo.Record
	Runs   []Run
}

// Reference returns the flight at the highest token count — the anchor for
// AREPAS simulation.
func (jf *JobFlights) Reference() Run { return jf.Runs[0] }

// Dataset is the outcome of a flighting experiment.
type Dataset struct {
	// Jobs are the non-anomalous jobs that survived all three filters.
	Jobs []JobFlights
	// TotalRuns counts surviving flights across jobs ("N Executions").
	TotalRuns int
	// Rejected counts jobs dropped by each filter, for reporting.
	RejectedIsolated, RejectedOveruse, RejectedNonMonotone int
}

// Execute flights every record in the selection. The executor must be the
// same ground-truth engine that produced the historical telemetry.
func Execute(selected []*jobrepo.Record, ex *scopesim.Executor, cfg Config) (*Dataset, error) {
	if len(selected) == 0 {
		return nil, errors.New("flight: nothing to flight")
	}
	if len(cfg.Fractions) < 2 {
		return nil, errors.New("flight: need at least two token fractions")
	}
	if cfg.Redundancy < 1 {
		return nil, errors.New("flight: redundancy must be at least 1")
	}
	// Flight each job on its own seed-derived noise stream. Because the
	// stream depends only on (cfg.Seed, job index), the outcome per job —
	// and therefore the whole dataset after the ordered reduction below —
	// is identical at any worker count.
	outcomes, err := parallel.Map(context.Background(), len(selected), cfg.Workers, func(i int) (jobOutcome, error) {
		return flightJob(selected[i], ex, rand.New(rand.NewSource(parallel.Seed(cfg.Seed, i))), cfg), nil
	})
	if err != nil {
		return nil, err
	}

	ds := &Dataset{}
	for _, oc := range outcomes {
		switch oc.verdict {
		case rejectedOveruse:
			ds.RejectedOveruse++
		case rejectedIsolated:
			ds.RejectedIsolated++
		case rejectedNonMonotone:
			ds.RejectedNonMonotone++
		default:
			ds.Jobs = append(ds.Jobs, oc.flights)
			ds.TotalRuns += len(oc.flights.Runs)
		}
	}
	if len(ds.Jobs) == 0 {
		return nil, errors.New("flight: every job was filtered out")
	}
	return ds, nil
}

// jobOutcome is one job's flighting result: either surviving flights or the
// filter that rejected it.
type jobOutcome struct {
	verdict int
	flights JobFlights
}

const (
	survived = iota
	rejectedIsolated
	rejectedOveruse
	rejectedNonMonotone
)

// flightJob runs all of one job's flights on the given rand stream and
// applies the three §5.1 filters.
func flightJob(rec *jobrepo.Record, ex *scopesim.Executor, rng *rand.Rand, cfg Config) jobOutcome {
	tokens := flightTokens(rec.ObservedTokens, cfg.Fractions)
	var runs []Run
	overused := false
	for _, tok := range tokens {
		run, ok := flightOnce(rec, tok, ex, rng, cfg)
		if !ok {
			continue
		}
		if run.Skyline.Peak() > tok {
			overused = true
		}
		runs = append(runs, run)
	}
	// Filter 2: discard errant jobs that used more than allocated.
	if overused {
		return jobOutcome{verdict: rejectedOveruse}
	}
	// Filter 1: at least two successful flights.
	if len(runs) < 2 {
		return jobOutcome{verdict: rejectedIsolated}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Tokens > runs[j].Tokens })
	// Filter 3: run time monotonically non-increasing in tokens, within
	// tolerance: walking from most to fewest tokens, run time must not drop
	// by more than the tolerance.
	if !monotoneWithTolerance(runs, cfg.MonotoneTolerance) {
		return jobOutcome{verdict: rejectedNonMonotone}
	}
	return jobOutcome{verdict: survived, flights: JobFlights{Record: rec, Runs: runs}}
}

// flightOnce runs one unique flight with redundancy, returning the
// median-runtime run; ok is false when every redundant run failed.
func flightOnce(rec *jobrepo.Record, tokens int, ex *scopesim.Executor, rng *rand.Rand, cfg Config) (Run, bool) {
	var candidates []Run
	for r := 0; r < cfg.Redundancy; r++ {
		if cfg.FailureProb > 0 && rng.Float64() < cfg.FailureProb {
			continue
		}
		res, err := ex.RunNoisy(rec.Job, tokens, rng, cfg.Noise)
		if err != nil {
			continue
		}
		sky := res.Skyline
		if cfg.OveruseProb > 0 && rng.Float64() < cfg.OveruseProb {
			// Errant anomaly: telemetry shows usage above the allocation
			// for a stretch of the run.
			sky = overuse(sky, tokens, rng)
		}
		candidates = append(candidates, Run{Tokens: tokens, RuntimeSeconds: sky.Runtime(), Skyline: sky})
	}
	if len(candidates) == 0 {
		return Run{}, false
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].RuntimeSeconds < candidates[j].RuntimeSeconds
	})
	return candidates[len(candidates)/2], true
}

// overuse injects the filter-2 anomaly: a window of the skyline exceeds the
// allocation.
func overuse(s skyline.Skyline, alloc int, rng *rand.Rand) skyline.Skyline {
	out := s.Clone()
	if len(out) == 0 {
		return out
	}
	start := rng.Intn(len(out))
	end := start + 1 + rng.Intn(10)
	if end > len(out) {
		end = len(out)
	}
	for t := start; t < end; t++ {
		out[t] = int32(min(alloc+1+rng.Intn(alloc/4+2), math.MaxInt32))
	}
	return out
}

// monotoneWithTolerance checks filter 3 over runs sorted descending by
// tokens: each run time may exceed the previous (higher-token) one — fewer
// tokens are allowed to be slower — but a *decrease* beyond tol as tokens
// shrink means more compute slowed the job down, which is anomalous.
func monotoneWithTolerance(runs []Run, tol float64) bool {
	for i := 1; i < len(runs); i++ {
		prev := float64(runs[i-1].RuntimeSeconds)
		cur := float64(runs[i].RuntimeSeconds)
		if cur < prev*(1-tol) {
			return false
		}
	}
	return true
}

// flightTokens converts fractions of the reference into distinct
// descending token counts ≥ 1.
func flightTokens(reference int, fractions []float64) []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range fractions {
		tok := int(f * float64(reference))
		if tok < 1 {
			tok = 1
		}
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// AreaStats quantifies the §5.2 area-conservation validation.
type AreaStats struct {
	// PairDiffs are |areaᵢ−areaⱼ|/max per execution pair, all jobs pooled
	// (Figure 12 top's sample).
	PairDiffs []float64
	// OutliersPerJob[tol] is the distribution of per-job outlier counts at
	// the given tolerance: index = number of outliers, value = number of
	// jobs (Figure 12 bottom).
	OutliersPerJob map[float64][]int
}

// MatchFraction returns the fraction of execution pairs whose area
// difference is within tol.
func (a *AreaStats) MatchFraction(tol float64) float64 {
	if len(a.PairDiffs) == 0 {
		return 0
	}
	var n int
	for _, d := range a.PairDiffs {
		if d <= tol {
			n++
		}
	}
	return float64(n) / float64(len(a.PairDiffs))
}

// AreaConservation computes pairwise area differences and per-job outlier
// counts at the given tolerances. An execution is an outlier when it
// mismatches a majority of its job's other executions.
func (ds *Dataset) AreaConservation(tolerances []float64) *AreaStats {
	out := &AreaStats{OutliersPerJob: make(map[float64][]int)}
	maxRuns := 0
	for _, jf := range ds.Jobs {
		if len(jf.Runs) > maxRuns {
			maxRuns = len(jf.Runs)
		}
	}
	for _, tol := range tolerances {
		out.OutliersPerJob[tol] = make([]int, maxRuns+1)
	}
	for _, jf := range ds.Jobs {
		n := len(jf.Runs)
		diffs := make([][]float64, n)
		for i := range diffs {
			diffs[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := skyline.AreaDifferenceFraction(jf.Runs[i].Skyline, jf.Runs[j].Skyline)
				diffs[i][j], diffs[j][i] = d, d
				out.PairDiffs = append(out.PairDiffs, d)
			}
		}
		for _, tol := range tolerances {
			outliers := 0
			for i := 0; i < n; i++ {
				mismatches := 0
				for j := 0; j < n; j++ {
					if j != i && diffs[i][j] > tol {
						mismatches++
					}
				}
				if 2*mismatches > n-1 {
					outliers++
				}
			}
			out.OutliersPerJob[tol][outliers]++
		}
	}
	return out
}

// FullyMatched returns the subset of jobs whose executions all match each
// other in area within tol (the paper's zero-outlier subset at 30%).
func (ds *Dataset) FullyMatched(tol float64) []JobFlights {
	var out []JobFlights
	for _, jf := range ds.Jobs {
		ok := true
		for i := 0; i < len(jf.Runs) && ok; i++ {
			for j := i + 1; j < len(jf.Runs); j++ {
				if skyline.AreaDifferenceFraction(jf.Runs[i].Skyline, jf.Runs[j].Skyline) > tol {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, jf)
		}
	}
	return out
}

// ArepasReport holds the AREPAS-vs-ground-truth accuracy numbers of
// Table 3 and Figure 13.
type ArepasReport struct {
	// Comparisons is the number of simulated-vs-flighted run pairs.
	Comparisons int
	// MedianAPE and MeanAPE pool all comparisons (fractions, not %).
	MedianAPE, MeanAPE float64
	// PerJobMedianPE is each job's median percent error (Figure 13's
	// histogram sample).
	PerJobMedianPE []float64
}

// ValidateArepas simulates each job from its reference flight's skyline to
// every other flighted token count and compares against the flighted run
// times.
func ValidateArepas(jobs []JobFlights) (*ArepasReport, error) {
	rep := &ArepasReport{}
	var preds, truths []float64
	for _, jf := range jobs {
		ref := jf.Reference()
		var jobErrs []float64
		for _, run := range jf.Runs[1:] {
			simRT, err := arepas.SimulateRuntime(ref.Skyline, run.Tokens)
			if err != nil {
				return nil, fmt.Errorf("flight: AREPAS on %s at %d tokens: %w", jf.Record.Job.ID, run.Tokens, err)
			}
			preds = append(preds, float64(simRT))
			truths = append(truths, float64(run.RuntimeSeconds))
			if run.RuntimeSeconds > 0 {
				jobErrs = append(jobErrs, absFrac(simRT, run.RuntimeSeconds))
			}
		}
		if len(jobErrs) > 0 {
			rep.PerJobMedianPE = append(rep.PerJobMedianPE, stats.Median(jobErrs))
		}
	}
	rep.Comparisons = len(preds)
	rep.MedianAPE = stats.MedianAPE(preds, truths)
	rep.MeanAPE = stats.MeanAPE(preds, truths)
	return rep, nil
}

func absFrac(pred, truth int) float64 {
	d := float64(pred - truth)
	if d < 0 {
		d = -d
	}
	return d / float64(truth)
}
