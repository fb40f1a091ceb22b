// Package jockey implements the two stage-level run-time simulators the
// TASQ paper discusses as prior art for SCOPE (§6.3): the Jockey simulator
// (Ferguson et al., EuroSys 2012) and the Amdahl's-law simulator. Both
// predict a job's run time at unobserved token allocations from per-stage
// statistics gathered on prior runs — in this reproduction, the stage
// structure recorded in the job description plays the role of those
// aggregated statistics.
//
//   - The Jockey simulator executes the stage plan wave by wave: stage s
//     with tasks_s tasks of d_s seconds takes ceil(tasks_s/N)·d_s seconds
//     at N tokens, and stages run back to back.
//   - The Amdahl simulator splits each stage into a serial part S (one
//     task's duration — the stage's critical path) and a parallel part P
//     (the remaining work), giving T(N) = Σ_s (S_s + P_s/N).
//
// Both ignore inter-stage overlap, which is why they deviate from the
// ground-truth executor where AREPAS — which starts from the observed
// skyline — does not. The package also provides Jockey's offline
// C(progress, allocation) table: remaining-run-time estimates precomputed
// for a grid of allocations, which the real system consulted online at no
// cost (§6.3).
package jockey

import (
	"errors"
	"fmt"
	"math"

	"tasq/internal/scopesim"
)

// ErrBadAllocation is returned for token counts below one.
var ErrBadAllocation = errors.New("jockey: allocation must be at least 1 token")

// SimulateJockey predicts the run time at the given allocation with the
// wave-based stage model: stages execute sequentially in topological
// order, each as ceil(tasks/N) waves of its task duration.
func SimulateJockey(job *scopesim.Job, tokens int) (int, error) {
	if tokens < 1 {
		return 0, ErrBadAllocation
	}
	if err := job.Validate(); err != nil {
		return 0, err
	}
	var total int
	for _, st := range job.Stages {
		waves := (int(st.Tasks) + tokens - 1) / tokens
		total += waves * st.TaskSeconds
	}
	return total, nil
}

// SimulateAmdahl predicts the run time with the serial/parallel split:
// T(N) = Σ_s (S_s + P_s/N) where S_s is one task duration and P_s the
// stage's remaining token-seconds.
func SimulateAmdahl(job *scopesim.Job, tokens int) (int, error) {
	if tokens < 1 {
		return 0, ErrBadAllocation
	}
	if err := job.Validate(); err != nil {
		return 0, err
	}
	var total float64
	for _, st := range job.Stages {
		serial := float64(st.TaskSeconds)
		parallel := float64((int(st.Tasks) - 1) * st.TaskSeconds)
		total += serial + parallel/float64(tokens)
	}
	return int(math.Round(total)), nil
}

// Table is Jockey's precomputed C(progress, allocation) structure: for
// each allocation, the estimated remaining run time at each progress
// point, where progress is the fraction of total work completed at stage
// boundaries.
type Table struct {
	Allocations []int
	// Progress[i] is the work fraction completed after stage i (in
	// topological order); Progress[len-1] == 1.
	Progress []float64
	// Remaining[a][i] is the predicted remaining seconds at allocation
	// Allocations[a] once Progress[i] of the work is done.
	Remaining [][]int
	order     []int
}

// Precompute builds the offline table for a grid of allocations, the
// expensive step §6.3 notes is run offline so online lookups are free.
func Precompute(job *scopesim.Job, allocations []int) (*Table, error) {
	if len(allocations) == 0 {
		return nil, errors.New("jockey: no allocations to precompute")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	order, err := job.StageOrder()
	if err != nil {
		return nil, err
	}
	totalWork := float64(job.TotalWork())
	if totalWork == 0 {
		return nil, errors.New("jockey: job has no work")
	}

	t := &Table{Allocations: allocations, order: order}
	// Progress after each stage in topological order.
	var done float64
	for _, s := range order {
		st := job.Stages[s]
		done += float64(int(st.Tasks) * st.TaskSeconds)
		t.Progress = append(t.Progress, done/totalWork)
	}
	for _, alloc := range allocations {
		if alloc < 1 {
			return nil, ErrBadAllocation
		}
		row := make([]int, len(order))
		// Remaining time after stage i = sum of wave times of stages i+1…
		remaining := 0
		for i := len(order) - 1; i >= 0; i-- {
			row[i] = remaining
			st := job.Stages[order[i]]
			waves := (int(st.Tasks) + alloc - 1) / alloc
			remaining += waves * st.TaskSeconds
		}
		t.Remaining = append(t.Remaining, row)
	}
	return t, nil
}

// RemainingAt returns the predicted remaining run time at the given
// allocation once the given fraction of work is complete. The allocation
// must be one of the precomputed grid values.
func (t *Table) RemainingAt(allocation int, progress float64) (int, error) {
	ai := -1
	for i, a := range t.Allocations {
		if a == allocation {
			ai = i
			break
		}
	}
	if ai < 0 {
		return 0, fmt.Errorf("jockey: allocation %d not precomputed", allocation)
	}
	if progress < 0 {
		progress = 0
	}
	// First stage boundary at or beyond the progress point.
	for i, p := range t.Progress {
		if progress <= p+1e-12 {
			return t.Remaining[ai][i], nil
		}
	}
	return 0, nil // past the end: nothing remains
}
