package model

import (
	"errors"
	"math"
	"testing"

	"tasq/internal/autotoken"
	"tasq/internal/jobrepo"
	"tasq/internal/jockey"
	"tasq/internal/pcc"
	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

// stub is a minimal predictor for mux/policy tests.
func stub(name string, trained bool, curve pcc.Curve) *Predictor {
	return New(name, func() Meta { return Meta{Kind: KindTrained, Trained: trained} },
		func(*scopesim.Job, int) (pcc.Curve, error) { return curve, nil })
}

// parallelJob builds a job whose stages parallelize well, so simulator
// curves decrease with tokens.
func parallelJob(id string) *scopesim.Job {
	return &scopesim.Job{
		ID:              id,
		RequestedTokens: 50,
		Stages: []scopesim.Stage{
			{ID: 0, Tasks: 200, TaskSeconds: 3},
			{ID: 1, Tasks: 80, TaskSeconds: 2, Deps: []int32{0}},
		},
	}
}

func TestMuxRegistrationAndLookup(t *testing.T) {
	m := NewMux()
	m.MustRegister(stub(NameXGBPL, true, pcc.Curve{A: -0.5, B: 10}))
	m.MustRegister(stub(NameNN, true, pcc.Curve{A: -0.3, B: 20}))

	// Normalized lookup: case, spaces, dashes, underscores.
	for _, alias := range []string{"XGBoost PL", "xgboost pl", "xgboost-pl", "XGBOOST_PL", "xgboostpl"} {
		p, err := m.Get(alias)
		if err != nil {
			t.Fatalf("Get(%q): %v", alias, err)
		}
		if p.Name() != NameXGBPL {
			t.Fatalf("Get(%q) = %s", alias, p.Name())
		}
	}

	// Unknown name: typed error listing what exists.
	_, err := m.Get("resnet")
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model error = %v", err)
	}

	// Registration order preserved.
	names := m.Names()
	if len(names) != 2 || names[0] != NameXGBPL || names[1] != NameNN {
		t.Fatalf("names = %v", names)
	}
	all := m.All()
	if len(all) != 2 || all[0].Name() != NameXGBPL || all[1].Name() != NameNN {
		t.Fatalf("All() order wrong")
	}

	// Duplicate (normalized) registration rejected.
	if err := m.Register(stub("xgboost-pl", true, pcc.Curve{})); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := m.Register(stub("", true, pcc.Curve{})); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestMuxInfos(t *testing.T) {
	m := NewMux()
	m.MustRegister(stub(NameNN, true, pcc.Curve{}))
	m.MustRegister(stub(NameGNN, false, pcc.Curve{}))
	m.MustRegister(AutoToken(nil, nil))
	infos := m.Infos()
	if len(infos) != 3 {
		t.Fatalf("got %d infos", len(infos))
	}
	if !infos[0].Trained || infos[1].Trained {
		t.Fatalf("trained flags wrong: %+v", infos)
	}
	if infos[2].Kind != string(KindBaseline) || infos[2].Provenance == "" {
		t.Fatalf("baseline info: %+v", infos[2])
	}
}

func TestPolicySelect(t *testing.T) {
	m := NewMux()
	m.MustRegister(stub(NameXGBPL, true, pcc.Curve{A: -0.5, B: 10}))
	m.MustRegister(stub(NameNN, false, pcc.Curve{A: -0.3, B: 20}))
	m.MustRegister(stub(NameGNN, false, pcc.Curve{A: -0.2, B: 30}))

	// Untrained entries are skipped in order.
	p, err := DefaultPolicy.Select(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != NameXGBPL {
		t.Fatalf("selected %s, want %s", p.Name(), NameXGBPL)
	}

	// Empty policy means the default chain.
	p2, err := Policy(nil).Select(m)
	if err != nil || p2.Name() != NameXGBPL {
		t.Fatalf("nil policy selected %v, %v", p2, err)
	}

	// Unknown name in a policy is loud, not skipped.
	if _, err := (Policy{"typo", NameXGBPL}).Select(m); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("typo policy error = %v", err)
	}

	// Exhausted chain.
	if _, err := (Policy{NameNN, NameGNN}).Select(m); !errors.Is(err, ErrUntrained) {
		t.Fatalf("exhausted policy error = %v", err)
	}

	// Check resolves every name, also past the trained one Select stops at.
	if _, err := (Policy{NameXGBPL, "typo"}).Select(m); err != nil {
		t.Fatalf("Select stops at the trained head: %v", err)
	}
	if err := (Policy{NameXGBPL, "typo"}).Check(m); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Check of a typo'd tail = %v, want ErrUnknownModel", err)
	}
	if err := DefaultPolicy.Check(m); err != nil {
		t.Fatalf("Check of the default chain = %v", err)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	pol := ParsePolicy(" nn, gnn ,xgboost-pl ,")
	if len(pol) != 3 || pol[0] != "nn" || pol[1] != "gnn" || pol[2] != "xgboost-pl" {
		t.Fatalf("parsed %v", pol)
	}
	if ParsePolicy("") != nil {
		t.Fatal("empty policy should be nil")
	}
	if got := (Policy{"a", "b"}).String(); got != "a,b" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCurveAtAnchoring(t *testing.T) {
	var gotRef int
	anchored := New("anch", func() Meta { return Meta{Trained: true} },
		func(_ *scopesim.Job, ref int) (pcc.Curve, error) {
			gotRef = ref
			return pcc.Curve{A: -0.5, B: float64(ref)}, nil
		})
	job := parallelJob("a")

	// PredictCurve anchors at requested tokens.
	if _, err := anchored.PredictCurve(job); err != nil {
		t.Fatal(err)
	}
	if gotRef != 50 {
		t.Fatalf("default anchor %d, want 50", gotRef)
	}
	// Requested tokens floored at 1.
	if _, err := anchored.PredictCurve(&scopesim.Job{ID: "z"}); err != nil {
		t.Fatal(err)
	}
	if gotRef != 1 {
		t.Fatalf("zero-request anchor %d, want 1", gotRef)
	}
	// PredictCurveAt overrides the anchor.
	if _, err := anchored.PredictCurveAt(job, 77); err != nil {
		t.Fatal(err)
	}
	if gotRef != 77 {
		t.Fatalf("PredictCurveAt anchor %d, want 77", gotRef)
	}

	// Reference-free predictors ignore the anchor.
	plain := stub("plain", true, pcc.Curve{A: -0.1, B: 5})
	c, err := plain.PredictCurveAt(job, 123)
	if err != nil || c.B != 5 {
		t.Fatalf("plain PredictCurveAt = %+v, %v", c, err)
	}
}

func TestCurveRegionGrid(t *testing.T) {
	grid := CurveRegion(100)
	if grid[0] != 60 || grid[len(grid)-1] != 140 {
		t.Fatalf("region = %v, want 60..140", grid)
	}
	for _, tok := range CurveRegion(1) {
		if tok < 1 {
			t.Fatalf("region below 1 token: %v", CurveRegion(1))
		}
	}
}

// TestFitRegion: non-positive run times are skipped, and a region left
// with fewer than two points is flat at the fallback, floored at 1, which
// is consulted only then.
func TestFitRegion(t *testing.T) {
	job := &scopesim.Job{ID: "fit"}
	calls := 0
	flat := func(v float64) func() float64 {
		return func() float64 { calls++; return v }
	}
	c, err := FitRegion(job, []int{10, 20, 40}, []float64{0, 100, 50}, flat(7))
	if err != nil || calls != 0 || math.Abs(c.A+1) > 1e-9 || math.Abs(c.B-2000) > 1e-6 {
		t.Fatalf("two-point fit = %+v, %v after %d flat calls, want a = -1, b = 2000", c, err, calls)
	}
	for _, tc := range []struct {
		runtimes []float64
		flat     float64
		want     float64
	}{
		{[]float64{-1, 0, 80}, 30, 30},
		{[]float64{0, 0, 0}, 0.2, 1},
		{[]float64{5, -5, 0}, math.Inf(1), math.Inf(1)},
	} {
		c, err := FitRegion(job, []int{1, 2, 3}, tc.runtimes, flat(tc.flat))
		if err != nil || c.A != 0 || c.B != tc.want {
			t.Fatalf("degenerate region %v = %+v, %v, want flat at %v", tc.runtimes, c, err, tc.want)
		}
	}
}

// simCurve fits a §6.3 stage simulator's run times over the ±40% region
// around reference, through the same FitRegion every served predictor
// uses.
func simCurve(sim func(*scopesim.Job, int) (int, error), job *scopesim.Job, reference int) (pcc.Curve, error) {
	grid := CurveRegion(reference)
	runtimes := make([]float64, len(grid))
	for i, tok := range grid {
		rt, err := sim(job, tok)
		if err != nil {
			return pcc.Curve{}, err
		}
		runtimes[i] = float64(rt)
	}
	return FitRegion(job, grid, runtimes, func() float64 {
		rt, _ := sim(job, reference)
		return float64(rt)
	})
}

func TestSimulatorBaselines(t *testing.T) {
	job := parallelJob("sim")
	for name, sim := range map[string]func(*scopesim.Job, int) (int, error){
		"Jockey": jockey.SimulateJockey,
		"Amdahl": jockey.SimulateAmdahl,
	} {
		c, err := simCurve(sim, job, job.RequestedTokens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Stage simulators predict less run time with more tokens on a
		// parallel job, so the fitted power law must be non-increasing.
		if !c.NonIncreasing() {
			t.Fatalf("%s curve %+v not non-increasing", name, c)
		}
		// Anchoring at another allocation must work too.
		c2, err := simCurve(sim, job, 30)
		if err != nil || !c2.Valid() {
			t.Fatalf("%s anchored curve %+v, %v", name, c2, err)
		}
		// Invalid jobs propagate simulator errors.
		bad := &scopesim.Job{ID: "bad", Stages: []scopesim.Stage{{ID: 0, Tasks: 0, TaskSeconds: 1}}}
		if _, err := simCurve(sim, bad, 50); err == nil {
			t.Fatalf("%s accepted invalid job", name)
		}
	}
}

func TestSimulatorDegenerateReference(t *testing.T) {
	// Reference 1 collapses the region to a single grid point: the fit
	// falls back to a flat curve at the point prediction.
	c, err := simCurve(jockey.SimulateJockey, parallelJob("deg"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.A != 0 || c.B < 1 {
		t.Fatalf("degenerate curve %+v, want flat", c)
	}
}

func TestAutoTokenAdapter(t *testing.T) {
	// Untrained: nil autotoken model.
	anchor := func(_ *scopesim.Job, ref int) (pcc.Curve, error) {
		return pcc.Curve{A: -0.5, B: float64(ref)}, nil
	}
	untrained := AutoToken(nil, anchor)
	if untrained.Meta().Trained {
		t.Fatal("nil autotoken reported trained")
	}
	if _, err := untrained.PredictCurve(parallelJob("x")); !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained error = %v", err)
	}

	// Trained on a real ingested sample.
	g := workload.New(workload.TestConfig(11))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(200), &ex); err != nil {
		t.Fatal(err)
	}
	recs := repo.All()
	at, err := autotoken.Train(recs, autotoken.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := AutoToken(at, anchor)
	if !p.Meta().Trained || p.Meta().Kind != KindBaseline {
		t.Fatalf("meta %+v", p.Meta())
	}

	var covered, uncovered int
	for _, rec := range recs {
		c, err := p.PredictCurve(rec.Job)
		switch {
		case err == nil:
			covered++
			if !c.Valid() {
				t.Fatalf("invalid curve for covered job %s", rec.Job.ID)
			}
			// The anchor received AutoToken's predicted peak.
			peak, ok := at.PredictPeak(rec.Job)
			if !ok || c.B != float64(peak) {
				t.Fatalf("anchor reference %v, want predicted peak %d", c.B, peak)
			}
		case errors.Is(err, ErrUncovered):
			uncovered++
			if at.Covered(rec.Job) {
				t.Fatalf("covered job %s reported uncovered", rec.Job.ID)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if covered == 0 {
		t.Fatal("no covered jobs")
	}
	if uncovered == 0 {
		t.Fatal("no uncovered jobs — the §6.2 coverage gap should show")
	}
}

// CurveRegion dedupes against the previous point only; the grid must equal
// the set-deduped one for every reference, the degenerate ones included.
func TestCurveRegionMatchesSetDedupe(t *testing.T) {
	for ref := -5; ref <= 3000; ref++ {
		var want []int
		seen := map[int]bool{}
		for f := 0.6; f <= 1.401; f += 0.1 {
			tok := int(math.Round(f * float64(ref)))
			if tok < 1 {
				tok = 1
			}
			if !seen[tok] {
				seen[tok] = true
				want = append(want, tok)
			}
		}
		got := CurveRegion(ref)
		if len(got) != len(want) {
			t.Fatalf("reference %d: grid %v, want %v", ref, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reference %d: grid %v, want %v", ref, got, want)
			}
		}
	}
}
