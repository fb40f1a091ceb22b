package experiments

import (
	"errors"
	"fmt"

	"tasq/internal/autotoken"
	"tasq/internal/jobrepo"
	"tasq/internal/stats"
)

// PolicyOutcome is one allocation policy's workload-level outcome on the
// test day.
type PolicyOutcome struct {
	Policy string
	// CoveredJobs of TotalJobs received a recommendation.
	CoveredJobs, TotalJobs int
	// TokensRequested vs UserTokens on the covered subset.
	TokensRequested, UserTokens int
	// TokenSavings = 1 − requested/user (negative means the policy asks
	// for more than users did).
	TokenSavings float64
	// MedianSlowdown is the median actual slowdown vs the user-requested
	// run, from ground-truth re-execution.
	MedianSlowdown float64
}

// AutoTokenComparisonResult compares the AutoToken baseline (§6.2) with
// TASQ's curve-based allocation on the historical test day.
type AutoTokenComparisonResult struct {
	Outcomes []PolicyOutcome
}

// AutoTokenComparison trains AutoToken on the training day, then compares
// three policies on the test day: the users' requests, AutoToken's
// predicted peaks (recurring jobs only), and TASQ's bounded-slowdown
// allocations (every job). Actual slowdowns come from re-running each job
// at the recommended allocation on the ground-truth executor.
func AutoTokenComparison(s *Suite) (*AutoTokenComparisonResult, error) {
	if len(s.Test) == 0 {
		return nil, errors.New("experiments: empty test set")
	}
	at, err := autotoken.Train(s.Train, autotoken.DefaultConfig())
	if err != nil {
		return nil, err
	}

	user := PolicyOutcome{Policy: "User requests", TotalJobs: len(s.Test)}
	atOut := PolicyOutcome{Policy: "AutoToken (peak)", TotalJobs: len(s.Test)}
	tasqOut := PolicyOutcome{Policy: "TASQ (≤10% slowdown)", TotalJobs: len(s.Test)}
	var atSlow, tasqSlow []float64

	rerun := func(rec *jobrepo.Record, tokens int) (float64, error) {
		run, err := s.Executor.Run(rec.Job, tokens)
		if err != nil {
			return 0, err
		}
		return float64(run.RuntimeSeconds)/float64(max(rec.RuntimeSeconds, 1)) - 1, nil
	}

	for _, rec := range s.Test {
		req := rec.ObservedTokens
		user.CoveredJobs++
		user.TokensRequested += req
		user.UserTokens += req

		if pred, ok := at.PredictPeak(rec.Job); ok {
			atOut.CoveredJobs++
			atOut.TokensRequested += pred
			atOut.UserTokens += req
			slow, err := rerun(rec, pred)
			if err != nil {
				return nil, err
			}
			atSlow = append(atSlow, slow)
		}

		curve, _, err := s.Pipeline.ScoreJob(rec.Job)
		if err != nil {
			return nil, err
		}
		opt := curve.TokensForSlowdown(req, 0.10)
		tasqOut.CoveredJobs++
		tasqOut.TokensRequested += opt
		tasqOut.UserTokens += req
		slow, err := rerun(rec, opt)
		if err != nil {
			return nil, err
		}
		tasqSlow = append(tasqSlow, slow)
	}

	finish := func(o *PolicyOutcome, slows []float64) {
		if o.UserTokens > 0 {
			o.TokenSavings = 1 - float64(o.TokensRequested)/float64(o.UserTokens)
		}
		o.MedianSlowdown = stats.Median(slows)
	}
	finish(&user, nil)
	finish(&atOut, atSlow)
	finish(&tasqOut, tasqSlow)
	return &AutoTokenComparisonResult{Outcomes: []PolicyOutcome{user, atOut, tasqOut}}, nil
}

// Render prints the policy comparison.
func (r *AutoTokenComparisonResult) Render() string {
	rows := make([][]string, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		rows = append(rows, []string{
			o.Policy,
			fmt.Sprintf("%d/%d", o.CoveredJobs, o.TotalJobs),
			fmt.Sprintf("%d", o.TokensRequested),
			pct(o.TokenSavings),
			pct(o.MedianSlowdown),
		})
	}
	return textTable("Extension (§6.2) — AutoToken baseline vs TASQ on the test day:",
		[]string{"Policy", "Coverage", "Tokens requested", "Savings vs users", "Median slowdown"}, rows)
}
