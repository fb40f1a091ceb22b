package jockey

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tasq/internal/scopesim"
	"tasq/internal/workload"
)

func chainJob(widths, durations []int) *scopesim.Job {
	j := &scopesim.Job{ID: "chain", RequestedTokens: 10}
	for i := range widths {
		st := scopesim.Stage{ID: int32(i), Tasks: int32(widths[i]), TaskSeconds: durations[i]}
		if i > 0 {
			st.Deps = []int32{int32(i - 1)}
		}
		st.Operators = []int32{int32(i)}
		j.Stages = append(j.Stages, st)
		j.Operators = append(j.Operators, scopesim.Operator{
			ID: int32(i), Kind: scopesim.OpFilter, Partitioning: scopesim.PartitionHash, Stage: int32(i),
		})
	}
	return j
}

func TestSimulateJockeyExactWaves(t *testing.T) {
	// 10 tasks × 4s then 3 tasks × 2s at 4 tokens:
	// ceil(10/4)·4 + ceil(3/4)·2 = 12 + 2 = 14.
	j := chainJob([]int{10, 3}, []int{4, 2})
	got, err := SimulateJockey(j, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("jockey = %d, want 14", got)
	}
}

func TestSimulateAmdahlFormula(t *testing.T) {
	// Stage 10×4s: S=4, P=36 → 4 + 36/4 = 13; stage 3×2s: 2 + 4/4 = 3.
	j := chainJob([]int{10, 3}, []int{4, 2})
	got, err := SimulateAmdahl(j, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("amdahl = %d, want 16", got)
	}
}

func TestSimulatorsRejectBadInput(t *testing.T) {
	j := chainJob([]int{1}, []int{1})
	if _, err := SimulateJockey(j, 0); err == nil {
		t.Fatal("jockey accepted 0 tokens")
	}
	if _, err := SimulateAmdahl(j, 0); err == nil {
		t.Fatal("amdahl accepted 0 tokens")
	}
	bad := chainJob([]int{0}, []int{1})
	if _, err := SimulateJockey(bad, 1); err == nil {
		t.Fatal("jockey accepted invalid job")
	}
}

func TestIdenticalAtOneToken(t *testing.T) {
	// With one token both models serialize all work: Σ tasks·duration.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := chainJob(
			[]int{1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9)},
			[]int{1 + rng.Intn(5), 1 + rng.Intn(5), 1 + rng.Intn(5)},
		)
		jock, err1 := SimulateJockey(j, 1)
		amd, err2 := SimulateAmdahl(j, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return jock == j.TotalWork() && amd == j.TotalWork()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInTokensProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		j := chainJob(
			[]int{1 + rng.Intn(30), 1 + rng.Intn(30)},
			[]int{1 + rng.Intn(8), 1 + rng.Intn(8)},
		)
		a := 1 + rng.Intn(20)
		b := a + 1 + rng.Intn(20)
		ja, _ := SimulateJockey(j, a)
		jb, _ := SimulateJockey(j, b)
		aa, _ := SimulateAmdahl(j, a)
		ab, _ := SimulateAmdahl(j, b)
		return jb <= ja && ab <= aa+1 // Amdahl rounding slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStageSimulatorsUpperBoundExecutor(t *testing.T) {
	// Both ignore stage overlap, so on DAGs with parallel branches they
	// never predict a faster run than the work-conserving executor.
	g := workload.New(workload.TestConfig(3))
	var ex scopesim.Executor
	for _, job := range g.Workload(30) {
		for _, tokens := range []int{1, 5, 20} {
			truth, err := ex.Run(job, tokens)
			if err != nil {
				t.Fatal(err)
			}
			jock, err := SimulateJockey(job, tokens)
			if err != nil {
				t.Fatal(err)
			}
			if jock < truth.RuntimeSeconds {
				t.Fatalf("job %s at %d tokens: jockey %d < executor %d",
					job.ID, tokens, jock, truth.RuntimeSeconds)
			}
		}
	}
}

func TestPrecomputeTable(t *testing.T) {
	j := chainJob([]int{8, 4, 2}, []int{3, 2, 5})
	tbl, err := Precompute(j, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Progress) != 3 || tbl.Progress[2] < 0.999 {
		t.Fatalf("progress = %v", tbl.Progress)
	}
	// Remaining at progress 0 region... first boundary: after stage 0.
	// At 4 tokens: stage1 = ceil(4/4)*2 = 2, stage2 = ceil(2/4)*5 = 5 → 7.
	rem, err := tbl.RemainingAt(4, tbl.Progress[0])
	if err != nil {
		t.Fatal(err)
	}
	if rem != 7 {
		t.Fatalf("remaining after stage 0 at 4 tokens = %d, want 7", rem)
	}
	// Complete job: nothing remains.
	rem, err = tbl.RemainingAt(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 0 {
		t.Fatalf("remaining at completion = %d", rem)
	}
	// Remaining decreases with progress.
	prev := 1 << 30
	for _, p := range tbl.Progress {
		r, err := tbl.RemainingAt(2, p)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev {
			t.Fatalf("remaining not decreasing: %d after %d", r, prev)
		}
		prev = r
	}
}

func TestPrecomputeErrors(t *testing.T) {
	j := chainJob([]int{2}, []int{2})
	if _, err := Precompute(j, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Precompute(j, []int{0}); err == nil {
		t.Fatal("bad allocation accepted")
	}
	tbl, err := Precompute(j, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.RemainingAt(99, 0.5); err == nil {
		t.Fatal("unknown allocation accepted")
	}
}
