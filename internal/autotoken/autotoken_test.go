package autotoken

import (
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

func ingest(t *testing.T, n int, seed int64) []*jobrepo.Record {
	t.Helper()
	g := workload.New(workload.TestConfig(seed))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(n), &ex); err != nil {
		t.Fatal(err)
	}
	return repo.All()
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("empty training accepted")
	}
	// Only ad-hoc jobs: nothing to group.
	recs := ingest(t, 40, 1)
	var adhoc []*jobrepo.Record
	for _, rec := range recs {
		if rec.Job.Template == "" {
			adhoc = append(adhoc, rec)
		}
	}
	if len(adhoc) == 0 {
		t.Skip("no ad-hoc jobs in sample")
	}
	if _, err := Train(adhoc, DefaultConfig()); err == nil {
		t.Fatal("ad-hoc-only training accepted")
	}
}

func TestCoverageSplitsRecurringVsAdhoc(t *testing.T) {
	recs := ingest(t, 300, 2)
	m, err := Train(recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Groups() == 0 {
		t.Fatal("no groups trained")
	}
	var coveredRecurring, coveredAdhoc int
	for _, rec := range recs {
		covered := m.Covered(rec.Job)
		if _, ok := m.PredictPeak(rec.Job); ok != covered {
			t.Fatal("Covered and PredictPeak disagree")
		}
		if covered && rec.Job.Template == "" {
			coveredAdhoc++
		}
		if covered && rec.Job.Template != "" {
			coveredRecurring++
		}
	}
	if coveredAdhoc != 0 {
		t.Fatalf("%d ad-hoc jobs covered; AutoToken cannot cover ad-hoc jobs", coveredAdhoc)
	}
	if coveredRecurring == 0 {
		t.Fatal("no recurring jobs covered")
	}
}

func TestUnseenTemplateUncovered(t *testing.T) {
	recs := ingest(t, 100, 3)
	m, err := Train(recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh := &scopesim.Job{ID: "new", Template: "never-seen-before"}
	if m.Covered(fresh) {
		t.Fatal("unseen template covered")
	}
}

func TestPredictionsCoverActualPeaks(t *testing.T) {
	// Train and evaluate on held-out instances of the same templates: the
	// predicted peak (with safety headroom) should usually cover or come
	// close to the actual peak.
	recs := ingest(t, 600, 4)
	train, test := recs[:400], recs[400:]
	m, err := Train(train, Config{Safety: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	var covered, reasonable int
	for _, rec := range test {
		pred, ok := m.PredictPeak(rec.Job)
		if !ok {
			continue
		}
		covered++
		actual := rec.Skyline.Peak()
		// Within a factor of three either way is "reasonable" for a
		// peak predictor keyed only on input size.
		if pred >= actual/3 && pred <= actual*3+1 {
			reasonable++
		}
	}
	if covered < 20 {
		t.Fatalf("only %d covered test jobs", covered)
	}
	if float64(reasonable) < 0.6*float64(covered) {
		t.Fatalf("only %d/%d predictions within 3x of the actual peak", reasonable, covered)
	}
}

func TestSafetyHeadroomIncreasesPrediction(t *testing.T) {
	recs := ingest(t, 300, 5)
	tight, err := Train(recs, Config{Safety: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Train(recs, Config{Safety: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var some bool
	for _, rec := range recs {
		a, ok1 := tight.PredictPeak(rec.Job)
		b, ok2 := loose.PredictPeak(rec.Job)
		if ok1 != ok2 {
			t.Fatal("coverage differs between safety settings")
		}
		if !ok1 {
			continue
		}
		if b < a {
			t.Fatalf("larger safety shrank prediction: %d < %d", b, a)
		}
		if b > a {
			some = true
		}
	}
	if !some {
		t.Fatal("safety headroom had no effect")
	}
}

func TestSmallGroupFallsBackToMax(t *testing.T) {
	// Two instances of one template (below MinGroupSize 3): prediction is
	// the historical max times safety.
	g := workload.New(workload.TestConfig(6))
	repo := jobrepo.New()
	var ex scopesim.Executor
	var recs []*jobrepo.Record
	for len(recs) < 2 {
		j := g.Job()
		if j.Template == "" {
			continue
		}
		// Force the same template signature for a tiny group.
		j.Template = "tiny-group"
		if err := repo.Ingest([]*scopesim.Job{j}, &ex); err != nil {
			t.Fatal(err)
		}
		recs = repo.All()
	}
	m, err := Train(recs, Config{Safety: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	maxPeak := 0
	for _, rec := range recs {
		if p := rec.Skyline.Peak(); p > maxPeak {
			maxPeak = p
		}
	}
	pred, ok := m.PredictPeak(recs[0].Job)
	if !ok {
		t.Fatal("tiny group uncovered")
	}
	if pred != maxPeak {
		t.Fatalf("fallback prediction %d, want historical max %d", pred, maxPeak)
	}
}
