package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"tasq/internal/arepas"
	"tasq/internal/flight"
	"tasq/internal/jobrepo"
	"tasq/internal/pcc"
	"tasq/internal/plan"
	"tasq/internal/skyline"
	"tasq/internal/stats"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Result reproduces Figure 1: one job's resource skyline against
// the Default / Peak / Adaptive-Peak allocation policies and their
// over-allocation.
type Figure1Result struct {
	JobID      string
	Skyline    skyline.Skyline
	Accounting []plan.PolicyAccounting
}

// Figure1 picks a representative peaky job whose request exceeds its peak
// (the paper's example job uses <80 tokens of a 125-token default).
func Figure1(s *Suite) (*Figure1Result, error) {
	rec := pickJob(s.Test, func(r *jobrepo.Record) float64 {
		if r.ObservedTokens <= r.Skyline.Peak() || r.RuntimeSeconds < 30 {
			return -1
		}
		return r.Skyline.Peakiness()
	})
	if rec == nil {
		return nil, errors.New("experiments: no over-allocated job found for Figure 1")
	}
	var accs []plan.PolicyAccounting
	for _, kind := range []plan.PolicyKind{plan.PolicyDefault, plan.PolicyPeak, plan.PolicyAdaptivePeak} {
		acc, err := plan.AccountPolicy(kind, rec.Skyline, rec.ObservedTokens, 0)
		if err != nil {
			return nil, err
		}
		accs = append(accs, acc)
	}
	return &Figure1Result{JobID: rec.Job.ID, Skyline: rec.Skyline, Accounting: accs}, nil
}

// Render prints the policy comparison.
func (r *Figure1Result) Render() string {
	rows := make([][]string, 0, len(r.Accounting))
	for _, a := range r.Accounting {
		rows = append(rows, []string{
			a.Policy.String(),
			fmt.Sprintf("%d", a.RequestTokens),
			fmt.Sprintf("%d", a.AllocatedTokenSeconds),
			fmt.Sprintf("%d", a.OverAllocation),
			pct(a.Utilization()),
		})
	}
	sky := sparkline(r.Skyline.Resample((r.Skyline.Runtime() + 59) / 60))
	return fmt.Sprintf("Figure 1 — skyline of job %s (peak %d tokens, %ds):\n  %s\n",
		r.JobID, r.Skyline.Peak(), r.Skyline.Runtime(), sky) +
		textTable("", []string{"Policy", "Request", "Alloc tok-s", "Over-alloc tok-s", "Utilization"}, rows)
}

// ---------------------------------------------------------------- Figure 2

// Figure2Result reproduces Figure 2: the share of jobs whose token request
// could shrink by each amount under three performance constraints.
type Figure2Result struct {
	// Buckets[i][j] is the fraction of jobs in reduction bucket j
	// (0%, 0–25%, 25–50%, >50%) for performance scenario i.
	Scenarios []string
	Buckets   [][4]float64
	Jobs      int
}

var figure2Slacks = []float64{0, 0.05, 0.10}

// Figure2 computes, per test job, the smallest token request whose AREPAS
// run time stays within the scenario's slack of the observed run time.
func Figure2(s *Suite) (*Figure2Result, error) {
	res := &Figure2Result{
		Scenarios: []string{"Default Performance", "95% Default Performance", "90% Default Performance"},
		Buckets:   make([][4]float64, len(figure2Slacks)),
		Jobs:      len(s.Test),
	}
	if len(s.Test) == 0 {
		return nil, errors.New("experiments: empty test set")
	}
	for _, rec := range s.Test {
		base := float64(rec.RuntimeSeconds)
		for si, slack := range figure2Slacks {
			minTok := rec.ObservedTokens
			for f := 0.95; f >= 0.05; f -= 0.05 {
				tok := int(f * float64(rec.ObservedTokens))
				if tok < 1 {
					tok = 1
				}
				rt, err := arepas.SimulateRuntime(rec.Skyline, tok)
				if err != nil {
					return nil, err
				}
				if float64(rt) <= base*(1+slack) {
					minTok = tok
				} else {
					break
				}
			}
			reduction := 1 - float64(minTok)/float64(rec.ObservedTokens)
			res.Buckets[si][bucketOf(reduction)]++
		}
	}
	for si := range res.Buckets {
		for j := range res.Buckets[si] {
			res.Buckets[si][j] /= float64(res.Jobs)
		}
	}
	return res, nil
}

func bucketOf(reduction float64) int {
	switch {
	case reduction <= 0.001:
		return 0
	case reduction <= 0.25:
		return 1
	case reduction <= 0.50:
		return 2
	default:
		return 3
	}
}

// Render prints the grouped bar chart as a table.
func (r *Figure2Result) Render() string {
	header := []string{"Scenario", "0%", "0-25%", "25-50%", ">50%"}
	rows := make([][]string, 0, len(r.Scenarios))
	for i, sc := range r.Scenarios {
		rows = append(rows, []string{
			sc, pct(r.Buckets[i][0]), pct(r.Buckets[i][1]), pct(r.Buckets[i][2]), pct(r.Buckets[i][3]),
		})
	}
	return textTable(fmt.Sprintf("Figure 2 — potential token request reduction (%d jobs):", r.Jobs), header, rows)
}

// ---------------------------------------------------------------- Figure 3

// Figure3Result reproduces Figure 3: the run-time/token trade-off of a
// single job with the elbow marked.
type Figure3Result struct {
	JobID    string
	Tokens   []int
	Runtimes []int
	Elbow    int
	Curve    pcc.Curve
}

// Figure3 sweeps a representative job on the ground-truth executor.
func Figure3(s *Suite) (*Figure3Result, error) {
	rec := pickJob(s.Test, func(r *jobrepo.Record) float64 {
		p := float64(r.Skyline.Peak())
		// A mid-size job whose request roughly matches its parallelism
		// produces the cleanly sloped trade-off the paper's figure shows.
		if p < 20 || p > 500 || r.RuntimeSeconds < 60 ||
			r.ObservedTokens > 3*r.Skyline.Peak()/2 {
			return -1
		}
		return p
	})
	if rec == nil {
		return nil, errors.New("experiments: no suitable job for Figure 3")
	}
	peak := rec.Skyline.Peak()
	res := &Figure3Result{JobID: rec.Job.ID}
	var samples []pcc.Sample
	for f := 0.1; f <= 2.001; f += 0.1 {
		tok := int(f * float64(peak))
		if tok < 1 {
			tok = 1
		}
		if len(res.Tokens) > 0 && tok == res.Tokens[len(res.Tokens)-1] {
			continue
		}
		run, err := s.Executor.Run(rec.Job, tok)
		if err != nil {
			return nil, err
		}
		res.Tokens = append(res.Tokens, tok)
		res.Runtimes = append(res.Runtimes, run.RuntimeSeconds)
		samples = append(samples, pcc.Sample{Tokens: float64(tok), Runtime: float64(run.RuntimeSeconds)})
	}
	curve, err := pcc.Fit(samples)
	if err != nil {
		return nil, err
	}
	res.Curve = curve
	res.Elbow = curve.Elbow(res.Tokens[0], res.Tokens[len(res.Tokens)-1])
	return res, nil
}

// Render prints the trade-off series.
func (r *Figure3Result) Render() string {
	rows := make([][]string, 0, len(r.Tokens))
	for i := range r.Tokens {
		marker := ""
		if i+1 < len(r.Tokens) && r.Tokens[i] <= r.Elbow && r.Tokens[i+1] > r.Elbow {
			marker = "<- elbow"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", r.Tokens[i]), fmt.Sprintf("%d", r.Runtimes[i]), marker})
	}
	return textTable(
		fmt.Sprintf("Figure 3 — run time vs tokens for job %s (fit %s, elbow at %d tokens):", r.JobID, r.Curve, r.Elbow),
		[]string{"Tokens", "Runtime (s)", ""}, rows)
}

// ---------------------------------------------------------------- Figure 5

// Figure5Result reproduces Figure 5: peaky vs flat skylines partitioned
// into utilization bands.
type Figure5Result struct {
	PeakyID, FlatID       string
	PeakyBands, FlatBands skyline.BandSummary
	PeakyScore, FlatScore float64
	PeakySky, FlatSky     skyline.Skyline
}

// Figure5 finds the most and least peaky jobs in the test day.
func Figure5(s *Suite) (*Figure5Result, error) {
	peaky := pickJob(s.Test, func(r *jobrepo.Record) float64 {
		if r.RuntimeSeconds < 30 || r.Skyline.Peak() < 10 {
			return -1
		}
		return r.Skyline.Peakiness()
	})
	flat := pickJob(s.Test, func(r *jobrepo.Record) float64 {
		if r.RuntimeSeconds < 30 || r.Skyline.Peak() < 10 {
			return -1
		}
		return 1 - r.Skyline.Peakiness()
	})
	if peaky == nil || flat == nil {
		return nil, errors.New("experiments: could not find contrasting jobs for Figure 5")
	}
	return &Figure5Result{
		PeakyID: peaky.Job.ID, FlatID: flat.Job.ID,
		// Bands are computed against each job's own peak: Figure 5 is
		// about the shape of the usage curve, not the (possibly generous)
		// request.
		PeakyBands: peaky.Skyline.SummarizeBands(peaky.Skyline.Peak()),
		FlatBands:  flat.Skyline.SummarizeBands(flat.Skyline.Peak()),
		PeakyScore: peaky.Skyline.Peakiness(), FlatScore: flat.Skyline.Peakiness(),
		PeakySky: peaky.Skyline, FlatSky: flat.Skyline,
	}, nil
}

// Render prints the band composition of both skylines.
func (r *Figure5Result) Render() string {
	rows := [][]string{
		{"Peaky " + r.PeakyID, num(r.PeakyScore), pct(r.PeakyBands.Minimum), pct(r.PeakyBands.Low), pct(r.PeakyBands.Moderate)},
		{"Flat " + r.FlatID, num(r.FlatScore), pct(r.FlatBands.Minimum), pct(r.FlatBands.Low), pct(r.FlatBands.Moderate)},
	}
	return textTable("Figure 5 — utilization bands of contrasting skylines:",
		[]string{"Job", "Peakiness", "Minimum (red)", "Low (pink)", "Moderate+ (green)"}, rows)
}

// ------------------------------------------------------------ Figures 6/7

// Figure6And7Result reproduces the paper's worked AREPAS example: the toy
// skyline whose under-allocated sections are copied (Figure 6) and whose
// over-allocated section is redistributed (Figure 7).
type Figure6And7Result struct {
	Original  skyline.Skyline
	Simulated skyline.Skyline
	NewAlloc  int
}

// Figure6And7 runs Algorithm 1 on the paper's example shape.
func Figure6And7() (*Figure6And7Result, error) {
	orig := skyline.Skyline{1, 1, 7, 7, 7, 7, 1, 1}
	sim, err := arepas.Simulate(orig, 3)
	if err != nil {
		return nil, err
	}
	return &Figure6And7Result{Original: orig, Simulated: sim, NewAlloc: 3}, nil
}

// Render prints both skylines with their areas.
func (r *Figure6And7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 6/7 — AREPAS section behaviour at %d tokens:\n", r.NewAlloc)
	fmt.Fprintf(&b, "  original  (%2ds, area %d): %v\n", r.Original.Runtime(), r.Original.Area(), []int(r.Original))
	fmt.Fprintf(&b, "  simulated (%2ds, area %d): %v\n", r.Simulated.Runtime(), r.Simulated.Area(), []int(r.Simulated))
	return b.String()
}

// ---------------------------------------------------------------- Figure 8

// Figure8Result reproduces Figure 8: simulated skylines of a flat and a
// peaky job at several allocations, showing that peaky jobs tolerate
// aggressive reduction better.
type Figure8Result struct {
	FlatID, PeakyID       string
	Fractions             []float64
	FlatRuntime           []int // runtime at each fraction of peak
	PeakyRuntime          []int
	FlatSlowdowns         []float64 // runtime/baseline − 1
	PeakySlowdowns        []float64
	FlatScore, PeakyScore float64
}

// Figure8 simulates both jobs with AREPAS at fractions of their peaks.
func Figure8(s *Suite) (*Figure8Result, error) {
	f5, err := Figure5(s)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{
		FlatID: f5.FlatID, PeakyID: f5.PeakyID,
		Fractions:  []float64{1.0, 0.75, 0.5, 0.25},
		FlatScore:  f5.FlatScore,
		PeakyScore: f5.PeakyScore,
	}
	fill := func(sky skyline.Skyline) (rts []int, slow []float64, err error) {
		peak := sky.Peak()
		base := sky.Runtime()
		for _, f := range res.Fractions {
			tok := int(f * float64(peak))
			if tok < 1 {
				tok = 1
			}
			rt, err := arepas.SimulateRuntime(sky, tok)
			if err != nil {
				return nil, nil, err
			}
			rts = append(rts, rt)
			slow = append(slow, float64(rt)/float64(base)-1)
		}
		return rts, slow, nil
	}
	if res.FlatRuntime, res.FlatSlowdowns, err = fill(f5.FlatSky); err != nil {
		return nil, err
	}
	if res.PeakyRuntime, res.PeakySlowdowns, err = fill(f5.PeakySky); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the per-allocation slowdowns for both jobs.
func (r *Figure8Result) Render() string {
	rows := make([][]string, 0, len(r.Fractions))
	for i, f := range r.Fractions {
		rows = append(rows, []string{
			pct(f),
			fmt.Sprintf("%d", r.FlatRuntime[i]), pct(r.FlatSlowdowns[i]),
			fmt.Sprintf("%d", r.PeakyRuntime[i]), pct(r.PeakySlowdowns[i]),
		})
	}
	return textTable(
		fmt.Sprintf("Figure 8 — simulated run times at fractions of peak (flat %s, peakiness %.2f; peaky %s, peakiness %.2f):",
			r.FlatID, r.FlatScore, r.PeakyID, r.PeakyScore),
		[]string{"Alloc (of peak)", "Flat rt (s)", "Flat slowdown", "Peaky rt (s)", "Peaky slowdown"}, rows)
}

// ---------------------------------------------------------------- Figure 9

// Figure9Result reproduces Figure 9: an AREPAS-simulated curve and its
// power-law fit in absolute and log–log space.
type Figure9Result struct {
	JobID     string
	Tokens    []int
	Simulated []int
	Fitted    []float64
	Curve     pcc.Curve
	R2LogLog  float64
}

// Figure9 sweeps one job and fits the power law.
func Figure9(s *Suite) (*Figure9Result, error) {
	rec := pickJob(s.Test, func(r *jobrepo.Record) float64 {
		// Want a job whose request sits near its real parallelism, so the
		// sweep covers the sloped region of the curve (as in the paper's
		// figure) rather than the flat over-allocated plateau.
		if r.Skyline.Peak() < 10 || r.RuntimeSeconds < 30 ||
			r.ObservedTokens > 3*r.Skyline.Peak()/2 {
			return -1
		}
		return float64(r.RuntimeSeconds)
	})
	if rec == nil {
		return nil, errors.New("experiments: no suitable job for Figure 9")
	}
	grid := arepas.FractionGrid(rec.ObservedTokens, arepas.GridFractions)
	pts, err := arepas.Sweep(rec.Skyline, grid)
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{JobID: rec.Job.ID}
	var samples []pcc.Sample
	for _, p := range pts {
		if p.Runtime < 1 {
			continue
		}
		res.Tokens = append(res.Tokens, p.Tokens)
		res.Simulated = append(res.Simulated, p.Runtime)
		samples = append(samples, pcc.Sample{Tokens: float64(p.Tokens), Runtime: float64(p.Runtime)})
	}
	curve, err := pcc.Fit(samples)
	if err != nil {
		return nil, err
	}
	res.Curve = curve
	res.R2LogLog = curve.RSquared(samples)
	res.Fitted = curve.TrendPoints(res.Tokens)
	return res, nil
}

// Render prints target vs fitted values.
func (r *Figure9Result) Render() string {
	rows := make([][]string, 0, len(r.Tokens))
	for i := range r.Tokens {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Tokens[i]),
			fmt.Sprintf("%d", r.Simulated[i]),
			fmt.Sprintf("%.1f", r.Fitted[i]),
			fmt.Sprintf("%.3f", math.Log(float64(r.Tokens[i]))),
			fmt.Sprintf("%.3f", math.Log(float64(r.Simulated[i]))),
		})
	}
	return textTable(
		fmt.Sprintf("Figure 9 — power-law fit for job %s: %s (log-log R² %.3f):", r.JobID, r.Curve, r.R2LogLog),
		[]string{"Tokens", "Simulated rt", "Fitted rt", "log tokens", "log rt"}, rows)
}

// --------------------------------------------------------------- Figure 11

// Figure11Result reproduces Figure 11: cluster proportions in the
// population, the pre-selection pool and the post-selection subset.
type Figure11Result struct {
	Population, Pool, Selected []float64
	KSBefore, KSAfter          float64
	SelectedJobs               int
}

// Figure11 reads the suite's §5.1 selection.
func Figure11(s *Suite) (*Figure11Result, error) {
	if s.Selection == nil {
		return nil, errors.New("experiments: suite has no selection result")
	}
	return &Figure11Result{
		Population:   s.Selection.PopulationProportions,
		Pool:         s.Selection.PoolProportions,
		Selected:     s.Selection.SelectedProportions,
		KSBefore:     s.Selection.KSBefore,
		KSAfter:      s.Selection.KSAfter,
		SelectedJobs: len(s.Selection.Selected),
	}, nil
}

// Render prints the three panels side by side.
func (r *Figure11Result) Render() string {
	rows := make([][]string, 0, len(r.Population))
	for c := range r.Population {
		rows = append(rows, []string{
			fmt.Sprintf("group %d", c),
			pct1(r.Population[c]) + " " + bar(r.Population[c], 20),
			pct1(r.Pool[c]) + " " + bar(r.Pool[c], 20),
			pct1(r.Selected[c]) + " " + bar(r.Selected[c], 20),
		})
	}
	return textTable(
		fmt.Sprintf("Figure 11 — cluster proportions (%d jobs selected; KS before %.3f → after %.3f):",
			r.SelectedJobs, r.KSBefore, r.KSAfter),
		[]string{"Cluster", "Population", "Pre-selection pool", "Post-selection"}, rows)
}

// --------------------------------------------------------------- Figure 12

// Figure12Result reproduces Figure 12: the tolerance-vs-match CDF of
// area-conservation and the per-job outlier counts.
type Figure12Result struct {
	ToleranceGrid  []float64
	MatchFractions []float64
	// OutliersPerJob[tol] is the per-job outlier-count histogram.
	OutlierTolerances []float64
	OutliersPerJob    map[float64][]int
	Jobs              int
}

// Figure12 analyzes the flighted dataset's area conservation.
func Figure12(s *Suite) (*Figure12Result, error) {
	if s.Flights == nil {
		return nil, errors.New("experiments: suite has no flighted dataset")
	}
	res := &Figure12Result{
		OutlierTolerances: []float64{0.8, 0.5, 0.3},
		Jobs:              len(s.Flights.Jobs),
	}
	as := s.Flights.AreaConservation(res.OutlierTolerances)
	for tol := 0.0; tol <= 1.001; tol += 0.05 {
		res.ToleranceGrid = append(res.ToleranceGrid, tol)
		res.MatchFractions = append(res.MatchFractions, as.MatchFraction(tol))
	}
	res.OutliersPerJob = as.OutliersPerJob
	return res, nil
}

// Render prints the CDF and histogram.
func (r *Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12 — area-conservation validation:\n")
	b.WriteString("  tolerance -> fraction of execution pairs matching\n")
	for i, tol := range r.ToleranceGrid {
		if i%2 == 0 { // print every 10%
			fmt.Fprintf(&b, "  %4s  %5s %s\n", pct(tol), pct(r.MatchFractions[i]), bar(r.MatchFractions[i], 30))
		}
	}
	fmt.Fprintf(&b, "  outliers per job over %d jobs:\n", r.Jobs)
	tols := append([]float64(nil), r.OutlierTolerances...)
	sort.Sort(sort.Reverse(sort.Float64Slice(tols)))
	for _, tol := range tols {
		hist := r.OutliersPerJob[tol]
		fmt.Fprintf(&b, "  tol %s:", pct(tol))
		for k, c := range hist {
			fmt.Fprintf(&b, "  %d outliers: %d jobs", k, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --------------------------------------------------------------- Figure 13

// Figure13Summary summarizes one subset's per-job errors.
type Figure13Summary struct {
	Jobs          int
	P50, P75, P90 float64
	Worst         float64
}

// Figure13Result reproduces Figure 13: AREPAS per-job median percent
// error distributions for the non-anomalous and fully-matched subsets.
type Figure13Result struct {
	NonAnomalous Figure13Summary
	FullyMatched Figure13Summary
}

// Figure13 validates AREPAS against flighted ground truth per job.
func Figure13(s *Suite) (*Figure13Result, error) {
	if s.Flights == nil {
		return nil, errors.New("experiments: suite has no flighted dataset")
	}
	summarize := func(jobs []flight.JobFlights) (Figure13Summary, error) {
		rep, err := flight.ValidateArepas(jobs)
		if err != nil {
			return Figure13Summary{}, err
		}
		return Figure13Summary{
			Jobs:  len(rep.PerJobMedianPE),
			P50:   stats.Quantile(rep.PerJobMedianPE, 0.5),
			P75:   stats.Quantile(rep.PerJobMedianPE, 0.75),
			P90:   stats.Quantile(rep.PerJobMedianPE, 0.9),
			Worst: stats.Max(rep.PerJobMedianPE),
		}, nil
	}
	nonAnom, err := summarize(s.Flights.Jobs)
	if err != nil {
		return nil, err
	}
	full, err := summarize(s.Flights.FullyMatched(0.3))
	if err != nil {
		return nil, err
	}
	return &Figure13Result{NonAnomalous: nonAnom, FullyMatched: full}, nil
}

// Render prints the percentile summary of both distributions.
func (r *Figure13Result) Render() string {
	rows := [][]string{
		{"Non-anomalous", fmt.Sprintf("%d", r.NonAnomalous.Jobs), pct1(r.NonAnomalous.P50), pct1(r.NonAnomalous.P75), pct1(r.NonAnomalous.P90), pct1(r.NonAnomalous.Worst)},
		{"Fully-matched", fmt.Sprintf("%d", r.FullyMatched.Jobs), pct1(r.FullyMatched.P50), pct1(r.FullyMatched.P75), pct1(r.FullyMatched.P90), pct1(r.FullyMatched.Worst)},
	}
	return textTable("Figure 13 — AREPAS per-job median percent error:",
		[]string{"Subset", "Jobs", "p50", "p75", "p90", "worst"}, rows)
}

// pickJob returns the record maximizing score (negative scores are
// excluded); nil if none qualify.
func pickJob(recs []*jobrepo.Record, score func(*jobrepo.Record) float64) *jobrepo.Record {
	var best *jobrepo.Record
	bestScore := math.Inf(-1)
	for _, rec := range recs {
		if s := score(rec); s >= 0 && s > bestScore {
			best, bestScore = rec, s
		}
	}
	return best
}
