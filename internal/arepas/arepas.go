// Package arepas implements AREPAS — the Area-Preserving Allocation
// Simulator of the TASQ paper (§3, Algorithm 1). Given a job's observed
// resource-usage skyline, AREPAS synthesizes the skyline (and hence the run
// time) the same job would have with a different token allocation, under
// the core assumption that the total amount of work — the area under the
// skyline in token-seconds — stays constant.
//
// The simulator is deterministic and purely geometric: sections of the
// skyline at or under the new allocation are copied unchanged (Figure 6);
// sections over the new allocation are flattened to the allocation level
// and lengthened so their area is preserved (Figure 7).
package arepas

import (
	"errors"
	"fmt"

	"tasq/internal/skyline"
)

// ErrNonPositiveAllocation is returned when simulating with a token count
// less than one; no work can complete with zero tokens.
var ErrNonPositiveAllocation = errors.New("arepas: allocation must be at least 1 token")

// Simulate implements Algorithm 1: it returns the simulated skyline of the
// job whose observed skyline is orig, when run with newAlloc tokens.
//
// Sections of orig that fit under newAlloc keep their shape; sections that
// exceed it are replaced by a flat run at newAlloc tokens whose length is
// ceil(area/newAlloc) seconds — the right-nearest integer approximation the
// paper uses, so no token-second of work is lost to rounding. Simulating at
// or above the observed peak returns the skyline unchanged (a copy).
func Simulate(orig skyline.Skyline, newAlloc int) (skyline.Skyline, error) {
	if newAlloc < 1 {
		return nil, ErrNonPositiveAllocation
	}
	if err := orig.Validate(); err != nil {
		return nil, fmt.Errorf("arepas: invalid input skyline: %w", err)
	}
	if len(orig) == 0 {
		return skyline.Skyline{}, nil
	}
	if orig.Peak() <= newAlloc {
		return orig.Clone(), nil
	}
	out := make(skyline.Skyline, 0, len(orig))
	for _, sec := range orig.Sections(newAlloc) {
		if !sec.Over {
			out = append(out, orig[sec.Start:sec.End]...)
			continue
		}
		var area int
		for t := sec.Start; t < sec.End; t++ {
			area += int(orig[t])
		}
		// Lengthen the section: flat at newAlloc for ceil(area/newAlloc)
		// seconds preserves the section's area up to the final second.
		// newAlloc is under the peak here, so it fits a skyline second.
		newLen := (area + newAlloc - 1) / newAlloc
		for i := 0; i < newLen; i++ {
			out = append(out, int32(newAlloc))
		}
		// The final second may be partially filled; adjust it so the
		// section's area is exactly preserved.
		if rem := area % newAlloc; rem != 0 {
			out[len(out)-1] = int32(rem)
		}
	}
	return out, nil
}

// SimulateRuntime returns only the simulated run time in seconds for the
// job at the given allocation: len(Simulate(orig, newAlloc)) with the same
// validation and errors, counted in one walk that builds no skyline. A
// second at or under the allocation counts as itself; a maximal run of
// seconds over it counts as ceil(area/newAlloc), the length Simulate
// flattens it to.
func SimulateRuntime(orig skyline.Skyline, newAlloc int) (int, error) {
	if newAlloc < 1 {
		return 0, ErrNonPositiveAllocation
	}
	var seconds, area int // area: token-seconds of the over-run in progress
	for _, v := range orig {
		switch {
		case v < 0:
			return 0, fmt.Errorf("arepas: invalid input skyline: %w", orig.Validate())
		case int(v) > newAlloc:
			area += int(v)
		default:
			seconds += (area+newAlloc-1)/newAlloc + 1
			area = 0
		}
	}
	return seconds + (area+newAlloc-1)/newAlloc, nil
}

// Point is one (allocation, run time) sample of a performance
// characteristic curve produced by simulation.
type Point struct {
	Tokens  int
	Runtime int
}

// Sweep simulates the job at every allocation in tokens and returns the
// resulting curve points in the same order. Allocations must be ≥ 1.
func Sweep(orig skyline.Skyline, tokens []int) ([]Point, error) {
	out := make([]Point, 0, len(tokens))
	for _, tok := range tokens {
		rt, err := SimulateRuntime(orig, tok)
		if err != nil {
			return nil, fmt.Errorf("arepas: sweep at %d tokens: %w", tok, err)
		}
		out = append(out, Point{Tokens: tok, Runtime: rt})
	}
	return out, nil
}

// GridFractions is the default augmentation grid used to synthesize PCC
// training targets: fractions of the observed (reference) allocation at
// which the job is simulated. It spans the aggressive-allocation region the
// paper studies (down to 20% of the reference) plus two sub-20% points so
// heavily over-allocated jobs — whose skylines are flat over most of the
// request — still contribute a sloped region to the fit.
var GridFractions = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// FractionGrid converts reference allocation and fractions into distinct
// integer token counts ≥ 1, preserving ascending order of fractions.
func FractionGrid(reference int, fractions []float64) []int {
	if reference < 1 {
		return nil
	}
	seen := make(map[int]bool, len(fractions))
	out := make([]int, 0, len(fractions))
	for _, f := range fractions {
		tok := int(f * float64(reference))
		if tok < 1 {
			tok = 1
		}
		if tok > reference {
			tok = reference
		}
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// AugmentationPoint is a synthesized training observation for the XGBoost
// model: run time at a token count other than the observed one.
type AugmentationPoint struct {
	Tokens  int
	Runtime int
	// Synthetic marks points produced by simulation rather than observed
	// telemetry (the observed reference point is not synthetic).
	Synthetic bool
}

// AugmentForXGBoost produces the paper's §4.4 augmentation set for a job
// with the given observed skyline and allocated (requested) token count:
// the observed point, simulated points at 80% and 60% of the observed
// allocation, and — for over-allocated jobs (peak usage below allocation) —
// points at 120% and 140% of the peak with run time floored at the
// peak-allocation run time (extra tokens beyond the peak cannot speed the
// job up).
func AugmentForXGBoost(orig skyline.Skyline, allocated int) ([]AugmentationPoint, error) {
	if allocated < 1 {
		return nil, ErrNonPositiveAllocation
	}
	out := []AugmentationPoint{{Tokens: allocated, Runtime: orig.Runtime()}}
	for _, f := range []float64{0.8, 0.6} {
		tok := int(f * float64(allocated))
		if tok < 1 {
			tok = 1
		}
		rt, err := SimulateRuntime(orig, tok)
		if err != nil {
			return nil, err
		}
		out = append(out, AugmentationPoint{Tokens: tok, Runtime: rt, Synthetic: true})
	}
	peak := orig.Peak()
	if peak > 0 && peak < allocated {
		// Over-allocated job: beyond the peak the skyline — and the run
		// time — cannot improve, so the floor is the peak-allocation run
		// time (== the observed run time, since usage never hit the cap).
		floor := orig.Runtime()
		for _, f := range []float64{1.2, 1.4} {
			tok := int(f * float64(peak))
			if tok < 1 {
				tok = 1
			}
			out = append(out, AugmentationPoint{Tokens: tok, Runtime: floor, Synthetic: true})
		}
	}
	return out, nil
}
