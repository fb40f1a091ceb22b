package scopesim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"tasq/internal/features"
	"tasq/internal/jockey"
	"tasq/internal/scopesim"
)

// TestWideJobArithmetic holds every product and sum of a job's 32-bit
// fields to int arithmetic: with Tasks and the operator counts at
// math.MaxInt32, a product taken in int32 would wrap. The wants were
// computed when the fields were int.
func TestWideJobArithmetic(t *testing.T) {
	est := scopesim.OpMetrics{OutputCardinality: 1e12, AvgRowLength: 64, TotalCost: 9,
		NumPartitions: math.MaxInt32, NumPartitioningColumns: math.MaxInt32, NumSortColumns: math.MaxInt32}
	job := &scopesim.Job{
		ID: "wide",
		Operators: []scopesim.Operator{
			{ID: 0, Kind: scopesim.OpExtract, Stage: 0, Est: est},
			{ID: 1, Kind: scopesim.OpHashJoin, Stage: 1, Children: []int32{0}, Est: est},
			{ID: 2, Kind: scopesim.OpOutput, Stage: 2, Children: []int32{0, 1}, Est: est},
		},
		Stages: []scopesim.Stage{
			{ID: 0, Tasks: math.MaxInt32, TaskSeconds: 3600, Operators: []int32{0}},
			{ID: 1, Tasks: math.MaxInt32, TaskSeconds: 7, Deps: []int32{0}, Operators: []int32{1}},
			{ID: 2, Tasks: 1, TaskSeconds: 1, Deps: []int32{0, 1}, Operators: []int32{2}},
		},
		RequestedTokens: math.MaxInt32,
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := job.TotalWork(), 7745973514730; got != want {
		t.Errorf("TotalWork = %d, want %d", got, want)
	}
	if got, want := job.PeakParallelism(), math.MaxInt32; got != want {
		t.Errorf("PeakParallelism = %d, want %d", got, want)
	}
	if got, err := job.CriticalPathSeconds(); err != nil || got != 3608 {
		t.Errorf("CriticalPathSeconds = %d, %v, want 3608", got, err)
	}
	for _, c := range []struct{ tokens, jockey, amdahl int }{
		{1, 7745973514730, 7745973514730},
		{7, 1106567648054, 1106567648054},
		{1 << 20, 7387137, 7390744},
		{1 << 40, 3608, 3615},
	} {
		if got, err := jockey.SimulateJockey(job, c.tokens); err != nil || got != c.jockey {
			t.Errorf("SimulateJockey(%d) = %d, %v, want %d", c.tokens, got, err, c.jockey)
		}
		if got, err := jockey.SimulateAmdahl(job, c.tokens); err != nil || got != c.amdahl {
			t.Errorf("SimulateAmdahl(%d) = %d, %v, want %d", c.tokens, got, err, c.amdahl)
		}
	}
	v := make([]float64, features.JobDim)
	features.FillJobVector(v, job)
	if v[7] != math.Log1p(math.MaxInt32) || v[8] != math.MaxInt32 || v[9] != math.MaxInt32 {
		t.Errorf("count columns = %v, want [log1p(MaxInt32) MaxInt32 MaxInt32]", v[7:10])
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	if got, want := h.Sum64(), uint64(0x2a7e2790a7e85778); got != want {
		t.Errorf("job vector digest %#x, want %#x: %v", got, want, v)
	}
}

// TestExecutorRefusesWideSecond: two MaxInt32-task stages running at once
// use more tokens in one second than a skyline second holds, so the run
// is refused rather than recorded wrapped.
func TestExecutorRefusesWideSecond(t *testing.T) {
	job := &scopesim.Job{
		ID: "two-wide",
		Operators: []scopesim.Operator{
			{ID: 0, Kind: scopesim.OpExtract, Stage: 0},
			{ID: 1, Kind: scopesim.OpExtract, Stage: 1},
		},
		Stages: []scopesim.Stage{
			{ID: 0, Tasks: math.MaxInt32, TaskSeconds: 1, Operators: []int32{0}},
			{ID: 1, Tasks: math.MaxInt32, TaskSeconds: 1, Operators: []int32{1}},
		},
	}
	if _, err := (&scopesim.Executor{}).Run(job, 1<<33); err == nil || !strings.Contains(err.Error(), "more than a skyline second holds") {
		t.Fatalf("Run = %v, want the skyline-second refusal", err)
	}
	if res, err := (&scopesim.Executor{}).Run(job, math.MaxInt32); err != nil || res.Skyline.Peak() != math.MaxInt32 {
		t.Fatalf("Run at MaxInt32 tokens = %v, want a skyline peaking at MaxInt32", err)
	}
}
