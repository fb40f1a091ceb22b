// Package stats supplies the statistical machinery TASQ's evaluation
// protocol needs: descriptive statistics, quantiles, empirical CDFs and
// histograms for the error analyses (§5.2–§5.4 of the paper), k-means
// clustering and the Kolmogorov–Smirnov test for the flighting job-selection
// procedure (§5.1).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs, or 0 if xs is empty.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It copies xs, so the input is not
// reordered. Returns 0 for empty input; q is clamped to [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the smallest value in xs, or +Inf if xs is empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or -Inf if xs is empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MAE returns the mean absolute error between pred and truth, which must be
// equal length. Returns 0 for empty input.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// AbsPercentErrors returns |pred−truth|/|truth| (as fractions, not
// percentages) for each pair. Pairs with zero truth are skipped.
func AbsPercentErrors(pred, truth []float64) []float64 {
	if len(pred) != len(truth) {
		panic("stats: AbsPercentErrors length mismatch")
	}
	out := make([]float64, 0, len(pred))
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		out = append(out, math.Abs(pred[i]-truth[i])/math.Abs(truth[i]))
	}
	return out
}

// MedianAPE returns the median absolute percentage error (as a fraction)
// between pred and truth.
func MedianAPE(pred, truth []float64) float64 {
	return Median(AbsPercentErrors(pred, truth))
}

// MeanAPE returns the mean absolute percentage error (as a fraction)
// between pred and truth.
func MeanAPE(pred, truth []float64) float64 {
	return Mean(AbsPercentErrors(pred, truth))
}

// ECDF returns the empirical CDF evaluated at each point in grid: the
// fraction of xs less than or equal to the grid value.
func ECDF(xs, grid []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(grid))
	if len(sorted) == 0 {
		return out
	}
	for i, g := range grid {
		// Number of samples ≤ g.
		n := sort.SearchFloat64s(sorted, math.Nextafter(g, math.Inf(1)))
		out[i] = float64(n) / float64(len(sorted))
	}
	return out
}

// HistogramBin is one bin of a Histogram.
type HistogramBin struct {
	Lo, Hi float64 // [Lo, Hi) except the last bin, which is inclusive
	Count  int
}

// Histogram divides [min, max] of xs into n equal-width bins and counts
// samples per bin. Returns nil for empty input or n < 1.
func Histogram(xs []float64, n int) []HistogramBin {
	if len(xs) == 0 || n < 1 {
		return nil
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		return []HistogramBin{{Lo: lo, Hi: hi, Count: len(xs)}}
	}
	width := (hi - lo) / float64(n)
	bins := make([]HistogramBin, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = lo + float64(i+1)*width
	}
	bins[n-1].Hi = hi
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		bins[idx].Count++
	}
	return bins
}

// Standardizer rescales values to zero mean and unit variance, remembering
// the statistics so predictions can be mapped back.
type Standardizer struct {
	Mean, Std float64
}

// FitStandardizer computes mean and standard deviation of xs.
func FitStandardizer(xs []float64) Standardizer {
	return NewStandardizer(Mean(xs), StdDev(xs))
}

// NewStandardizer is the Standardizer of a sample with the given mean and
// population standard deviation. A zero (or near-zero) spread falls back
// to Std = 1 so Transform stays finite.
func NewStandardizer(mean, std float64) Standardizer {
	s := Standardizer{Mean: mean, Std: std}
	if s.Std < 1e-12 {
		s.Std = 1
	}
	return s
}

// Transform maps x into standardized space.
func (s Standardizer) Transform(x float64) float64 { return (x - s.Mean) / s.Std }

// Inverse maps a standardized value back to the original space.
func (s Standardizer) Inverse(z float64) float64 { return z*s.Std + s.Mean }
