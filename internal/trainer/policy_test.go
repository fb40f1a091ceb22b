package trainer

import (
	"errors"
	"testing"

	"tasq/internal/model"
)

// TestScoreJobAndOptimalTokensAgreeOnModel is the regression guard for
// the collapsed fallback logic: before the Policy seam, ScoreJob and
// OptimalTokens carried duplicated NN→GNN→XGBoost-PL switches that could
// silently disagree if one was edited without the other. Both now go
// through policy().Select, so for every pipeline state the predictor
// ScoreJob reports must be exactly the one OptimalTokens resolves.
func TestScoreJobAndOptimalTokensAgreeOnModel(t *testing.T) {
	train, _ := dataset(t, 40, 0, 13)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"full", func(*Config) {}, ModelNN},
		{"skip NN", func(c *Config) { c.SkipNN = true }, ModelGNN},
		{"skip NN and GNN", func(c *Config) { c.SkipNN, c.SkipGNN = true, true }, ModelXGBPL},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(14)
			cfg.NN.Epochs = 5
			cfg.GNN.Epochs = 1
			tc.mutate(&cfg)
			p, err := Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}

			_, scored, err := p.ScoreJob(train[0].Job)
			if err != nil {
				t.Fatal(err)
			}
			if scored != tc.want {
				t.Fatalf("ScoreJob picked %s, want %s", scored, tc.want)
			}
			// The same selection OptimalTokens makes.
			pr, err := p.policy().Select(p.Predictors())
			if err != nil {
				t.Fatal(err)
			}
			if pr.Name() != scored {
				t.Fatalf("policy resolves %s for OptimalTokens but ScoreJob reported %s", pr.Name(), scored)
			}
			if _, err := p.OptimalTokens(train[0], 0, 0.01); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScorePolicyOverride routes the whole scoring path through the
// AutoToken baseline, which is outside the built-in fallback chain.
func TestScorePolicyOverride(t *testing.T) {
	train, _ := dataset(t, 40, 0, 15)
	cfg := fastConfig(16)
	cfg.SkipNN, cfg.SkipGNN = true, true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// AutoToken covers only recurring templates: score a job it covers.
	at, err := p.Predictors().Get(model.NameAutoToken)
	if err != nil {
		t.Fatal(err)
	}
	rec := train[0]
	for _, r := range train {
		if _, err := at.PredictCurve(r.Job); err == nil {
			rec = r
			break
		}
	}
	p.ScorePolicy = model.Policy{model.NameAutoToken}
	curve, name, err := p.ScoreJob(rec.Job)
	if err != nil {
		t.Fatal(err)
	}
	if name != model.NameAutoToken {
		t.Fatalf("scored through %s, want %s", name, model.NameAutoToken)
	}
	if !curve.Valid() {
		t.Fatalf("invalid curve %+v", curve)
	}
	if opt, err := p.OptimalTokens(rec, 0, 0.01); err != nil || opt < 1 {
		t.Fatalf("optimal tokens %d, %v", opt, err)
	}

	// A policy naming an unknown model fails loudly on both paths.
	p.ScorePolicy = model.Policy{"resnet"}
	if _, _, err := p.ScoreJob(train[0].Job); !errors.Is(err, model.ErrUnknownModel) {
		t.Fatalf("ScoreJob with bogus policy: %v", err)
	}
	if _, err := p.OptimalTokens(train[0], 0, 0.01); !errors.Is(err, model.ErrUnknownModel) {
		t.Fatalf("OptimalTokens with bogus policy: %v", err)
	}
}

// TestScoreJobModelRouting covers the by-name entry point every layer
// above routes through.
func TestScoreJobModelRouting(t *testing.T) {
	train, _ := dataset(t, 60, 0, 17)
	cfg := fastConfig(18)
	cfg.SkipGNN = true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := train[0].Job

	// Empty name follows the policy.
	_, name, err := p.ScoreJobModel("", job)
	if err != nil || name != ModelNN {
		t.Fatalf("default routing: %s, %v", name, err)
	}
	// Explicit names (normalized) route to the named predictor and echo
	// its canonical name.
	for _, req := range []string{"nn", "xgboost-pl", "XGBoost SS"} {
		curve, got, err := p.ScoreJobModel(req, job)
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		if got == "" || !curve.Valid() {
			t.Fatalf("%s: name %q curve %+v", req, got, curve)
		}
	}
	// Unknown → ErrUnknownModel, the unserved §6.3 simulators included;
	// untrained → ErrUntrained.
	for _, req := range []string{"resnet", "jockey", "Amdahl"} {
		if _, _, err := p.ScoreJobModel(req, job); !errors.Is(err, model.ErrUnknownModel) {
			t.Fatalf("unknown model %s: %v", req, err)
		}
	}
	if _, _, err := p.ScoreJobModel("gnn", job); !errors.Is(err, model.ErrUntrained) {
		t.Fatalf("untrained model: %v", err)
	}
}

// TestManifestPredictorSet pins what TrainedPredictors reports for a
// SkipGNN pipeline: everything but the GNN (AutoToken included — the
// workload generator always produces recurring templates).
func TestManifestPredictorSet(t *testing.T) {
	train, _ := dataset(t, 60, 0, 19)
	cfg := fastConfig(20)
	cfg.SkipGNN = true
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := p.TrainedPredictors()
	want := []string{ModelXGBSS, ModelXGBPL, ModelNN, model.NameAutoToken}
	if len(got) != len(want) {
		t.Fatalf("trained predictors %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trained predictors %v, want %v", got, want)
		}
	}
}
