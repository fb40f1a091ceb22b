package experiments

import (
	"errors"
	"fmt"

	"tasq/internal/arepas"
	"tasq/internal/drift"
	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// DriftRow is one evaluation day's comparison between the stale-skyline
// baseline and TASQ's feature-driven model.
type DriftRow struct {
	Day string
	// Jobs is the number of recurring jobs with a day-1 skyline available.
	Jobs int
	// StaleSkylineMedAE replays the most recent same-template training-day
	// skyline through AREPAS — the §1 strawman that goes stale as inputs
	// grow.
	StaleSkylineMedAE float64
	// ModelMedAE is the XGBoost pipeline's compile-time prediction, which
	// sees the drifted input sizes through the job's cardinality features.
	ModelMedAE float64
}

// InputDriftResult reproduces §1's motivation quantitatively: historical
// skylines of recurring jobs become unreliable when input sizes grow,
// while a model keyed on compile-time features adapts.
type InputDriftResult struct {
	DriftFactor float64
	Rows        []DriftRow
}

// AblationInputDrift generates a drifted extra day (same templates, inputs
// grown 3x) and compares the stale-skyline baseline against the trained
// pipeline on both the normal test day and the drifted day. Both degrade —
// trees cannot extrapolate beyond the training range either — but the
// skyline replay degrades much more sharply, which is §1's argument for
// learning from compile-time features instead of replaying history.
func AblationInputDrift(s *Suite) (*InputDriftResult, error) {
	const driftFactor = 3.0
	if s.Pipeline == nil {
		return nil, errors.New("experiments: suite has no pipeline")
	}
	// Most recent training-day record per template: the stale skylines.
	prior := make(map[string]*jobrepo.Record)
	for _, rec := range s.Train {
		if rec.Job.Template != "" {
			prior[rec.Job.Template] = rec
		}
	}

	// The drifted day: replay the generator past the suite's jobs so the
	// templates match, then grow inputs.
	gen := workload.New(s.Config.Workload)
	gen.Workload(s.Config.TrainJobs + s.Config.TestJobs) // consume day 1+2
	if err := gen.SetInputDrift(driftFactor); err != nil {
		return nil, err
	}
	drifted := gen.Workload(s.Config.TestJobs)
	// The suite anonymized its jobs; anonymize the drifted day the same
	// way so template signatures line up (anonymization is deterministic
	// per template).
	for i, j := range drifted {
		j.Anonymize(s.Config.TrainJobs + s.Config.TestJobs + i)
	}

	normalRow, err := s.driftEval("test day (no drift)", jobrepo.Jobs(s.Test), prior)
	if err != nil {
		return nil, err
	}
	driftRow, err := s.driftEval(fmt.Sprintf("drifted day (inputs ×%.1f)", driftFactor), drifted, prior)
	if err != nil {
		return nil, err
	}
	return &InputDriftResult{DriftFactor: driftFactor, Rows: []DriftRow{normalRow, driftRow}}, nil
}

// driftEval compares both predictors on recurring jobs of one day. Ground
// truth comes from the deterministic executor at the requested tokens.
// The error arithmetic lives in the shared internal/drift package — the
// same implementation the online autopilot detector uses — so the offline
// tables and the live alarms can never disagree about what "drift" means.
func (s *Suite) driftEval(day string, jobs []*scopesim.Job, prior map[string]*jobrepo.Record) (DriftRow, error) {
	var stale, model drift.Accumulator
	row := DriftRow{Day: day}
	for _, job := range jobs {
		prev, ok := prior[job.Template]
		if job.Template == "" || !ok {
			continue
		}
		run, err := s.Executor.Run(job, job.RequestedTokens)
		if err != nil {
			return row, err
		}
		if run.RuntimeSeconds < 1 {
			continue
		}
		staleRT, err := arepas.SimulateRuntime(prev.Skyline, job.RequestedTokens)
		if err != nil {
			return row, err
		}
		truth := float64(run.RuntimeSeconds)
		stale.Add(float64(staleRT), truth)
		model.Add(s.Pipeline.XGB.PredictRuntime(job, job.RequestedTokens), truth)
		row.Jobs++
	}
	if row.Jobs == 0 {
		return row, errors.New("experiments: no recurring jobs for drift evaluation")
	}
	row.StaleSkylineMedAE = stale.MedianAPE()
	row.ModelMedAE = model.MedianAPE()
	return row, nil
}

// Render prints the drift comparison.
func (r *InputDriftResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Day, fmt.Sprintf("%d", row.Jobs),
			pct(row.StaleSkylineMedAE), pct(row.ModelMedAE),
		})
	}
	return textTable("Extension (§1) — input drift: stale recurring-job skylines vs compile-time model:",
		[]string{"Day", "Recurring jobs", "Stale-skyline MedAE", "TASQ XGBoost MedAE"}, rows)
}
