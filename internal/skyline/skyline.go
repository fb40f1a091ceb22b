// Package skyline implements the resource-usage skyline representation from
// the TASQ paper (§1, §3): the time series of tokens a job uses over its
// execution, discretized at one-second granularity. Each 1x1 square under
// the skyline is one token-second; the area under the curve is the job's
// total work. The package provides the geometry the AREPAS simulator and
// the evaluation figures rely on: area, peak, sections above/below a
// threshold, utilization bands (Figure 5), and over-allocation accounting
// against an allocation policy (Figure 1).
package skyline

import (
	"fmt"
	"math"
)

// Skyline is a job's token usage per second. S[t] is the number of tokens
// the job used during second t. Usage is non-negative; the slice's length
// is the job's run time in seconds. A second is 32-bit to halve what a held
// skyline costs; every method computes and returns in int.
type Skyline []int32

// Validate returns an error if the skyline contains negative usage.
func (s Skyline) Validate() error {
	for t, v := range s {
		if v < 0 {
			return fmt.Errorf("skyline: negative usage %d at second %d", v, t)
		}
	}
	return nil
}

// Runtime returns the job's run time in seconds.
func (s Skyline) Runtime() int { return len(s) }

// Area returns the total token-seconds under the skyline — the job's total
// amount of work under AREPAS's area-preservation assumption.
func (s Skyline) Area() int {
	var a int
	for _, v := range s {
		a += int(v)
	}
	return a
}

// Peak returns the maximum tokens used at any second (0 for an empty
// skyline).
func (s Skyline) Peak() int {
	var p int
	for _, v := range s {
		if int(v) > p {
			p = int(v)
		}
	}
	return p
}

// MeanUsage returns the average tokens in use per second.
func (s Skyline) MeanUsage() float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s.Area()) / float64(len(s))
}

// Clone returns a copy of s.
func (s Skyline) Clone() Skyline {
	return append(Skyline(nil), s...)
}

// Peakiness quantifies how spiky a skyline is as 1 − mean/peak. A flat
// skyline scores near 0; a skyline with deep valleys scores near 1. Peaky
// jobs tolerate aggressive sub-peak allocation better (Figure 8).
func (s Skyline) Peakiness() float64 {
	p := s.Peak()
	if p == 0 {
		return 0
	}
	return 1 - s.MeanUsage()/float64(p)
}

// Section is a maximal contiguous run of seconds that is entirely at-or-
// under, or entirely over, a threshold allocation.
type Section struct {
	Start, End int  // half-open interval [Start, End) in seconds
	Over       bool // true if usage exceeds the threshold throughout
}

// Len returns the section length in seconds.
func (sec Section) Len() int { return sec.End - sec.Start }

// Sections splits the skyline at threshold crossings, mirroring lines 1–4
// of Algorithm 1 in the paper: each returned section is completely under
// (usage ≤ threshold) or completely over (usage > threshold).
func (s Skyline) Sections(threshold int) []Section {
	if len(s) == 0 {
		return nil
	}
	var out []Section
	cur := Section{Start: 0, Over: int(s[0]) > threshold}
	for t := 1; t < len(s); t++ {
		over := int(s[t]) > threshold
		if over != cur.Over {
			cur.End = t
			out = append(out, cur)
			cur = Section{Start: t, Over: over}
		}
	}
	cur.End = len(s)
	return append(out, cur)
}

// UtilizationBand classifies each second of the skyline relative to an
// allocation, reproducing the color-coded regions of Figure 5.
type UtilizationBand int

// Utilization bands ordered from worst to best use of the allocation.
const (
	BandMinimum  UtilizationBand = iota // near-minimum utilization (red)
	BandLow                             // low utilization (pink)
	BandModerate                        // moderate-to-high utilization (green)
)

// Band thresholds as fractions of the allocation: below LowCut is
// "minimum", below ModerateCut is "low", the rest is "moderate/high".
const (
	lowCut      = 0.25
	moderateCut = 0.5
)

// Bands returns the utilization band of each second under the given
// allocation. A non-positive allocation yields all-minimum.
func (s Skyline) Bands(allocation int) []UtilizationBand {
	out := make([]UtilizationBand, len(s))
	if allocation <= 0 {
		return out
	}
	for t, v := range s {
		frac := float64(v) / float64(allocation)
		switch {
		case frac < lowCut:
			out[t] = BandMinimum
		case frac < moderateCut:
			out[t] = BandLow
		default:
			out[t] = BandModerate
		}
	}
	return out
}

// BandSummary reports the fraction of run time spent in each band.
type BandSummary struct {
	Minimum, Low, Moderate float64
}

// SummarizeBands aggregates Bands into per-band time fractions.
func (s Skyline) SummarizeBands(allocation int) BandSummary {
	var sum BandSummary
	if len(s) == 0 {
		return sum
	}
	for _, b := range s.Bands(allocation) {
		switch b {
		case BandMinimum:
			sum.Minimum++
		case BandLow:
			sum.Low++
		default:
			sum.Moderate++
		}
	}
	n := float64(len(s))
	sum.Minimum /= n
	sum.Low /= n
	sum.Moderate /= n
	return sum
}

// OverAllocation returns the total token-seconds allocated but unused when
// the job holds a constant allocation for its whole run time (the shaded
// gap in Figure 1). Seconds where usage exceeds the allocation contribute
// zero (the job cannot over-use a guaranteed allocation in practice, but
// skylines recorded under a different policy may).
func (s Skyline) OverAllocation(allocation int) int {
	var waste int
	for _, v := range s {
		if int(v) < allocation {
			waste += allocation - int(v)
		}
	}
	return waste
}

// AdaptivePeakAllocation returns the token-seconds allocated under an
// adaptive-peak policy that, at each second, holds the maximum usage seen
// in the remaining lifetime of the job (the policy of Bag et al. [9]:
// resources are released as the remaining peak drops).
func (s Skyline) AdaptivePeakAllocation() int {
	var total int
	var remainingPeak int32
	// Walk backwards: the allocation at second t is the max over s[t:].
	for t := len(s) - 1; t >= 0; t-- {
		if s[t] > remainingPeak {
			remainingPeak = s[t]
		}
		total += int(remainingPeak)
	}
	return total
}

// Resample returns the skyline averaged into buckets of the given width in
// seconds, useful for plotting long jobs compactly. Width < 1 is treated
// as 1.
func (s Skyline) Resample(width int) []float64 {
	if width < 1 {
		width = 1
	}
	if len(s) == 0 {
		return nil
	}
	n := (len(s) + width - 1) / width
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * width
		hi := lo + width
		if hi > len(s) {
			hi = len(s)
		}
		var sum int
		for t := lo; t < hi; t++ {
			sum += int(s[t])
		}
		out[i] = float64(sum) / float64(hi-lo)
	}
	return out
}

// AreaDifferenceFraction returns |area(a) − area(b)| / max(area(a),
// area(b)), the tolerance measure used to validate AREPAS's
// area-conservation assumption in §5.2 (Figure 12). Two empty skylines
// have zero difference.
func AreaDifferenceFraction(a, b Skyline) float64 {
	aa, ab := float64(a.Area()), float64(b.Area())
	mx := math.Max(aa, ab)
	if mx == 0 {
		return 0
	}
	return math.Abs(aa-ab) / mx
}
