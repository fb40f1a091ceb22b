// Package pcc implements the performance characteristic curve of the TASQ
// paper (§2.1, §4): a two-parameter power law
//
//	Runtime(A) = b · Aᵃ
//
// relating a job's run time to its token allocation A. Amdahl's law is the
// special case a = −1. The curve is monotonically non-increasing when b > 0
// and a ≤ 0 — the sign configuration TASQ's constrained models guarantee.
//
// The package provides log–log least-squares fitting (Figure 9), point and
// trend prediction, the optimal-allocation rule from §2.1 (stop when the
// marginal gain per extra token falls below a threshold), and elbow
// detection for visualization (Figure 3).
package pcc

import (
	"errors"
	"fmt"
	"math"
)

// Curve is a fitted power-law performance characteristic curve.
type Curve struct {
	// A is the exponent; non-increasing curves have A ≤ 0.
	A float64
	// B is the scale in seconds; meaningful curves have B > 0.
	B float64
}

// Runtime evaluates the curve at the given token count.
func (c Curve) Runtime(tokens float64) float64 {
	return c.B * math.Pow(tokens, c.A)
}

// Slope returns d Runtime / d tokens at the given token count.
func (c Curve) Slope(tokens float64) float64 {
	return c.A * c.B * math.Pow(tokens, c.A-1)
}

// NonIncreasing reports whether the curve never gains run time with more
// tokens, i.e. the parameter signs are "inconsistent" in the paper's terms
// (b positive, a non-positive).
func (c Curve) NonIncreasing() bool {
	return c.B > 0 && c.A <= 0
}

// Valid reports whether the parameters describe a usable curve.
func (c Curve) Valid() bool {
	return c.B > 0 && !math.IsNaN(c.A) && !math.IsInf(c.A, 0)
}

// String renders the curve in the paper's R = b·Aᵃ form.
func (c Curve) String() string {
	return fmt.Sprintf("Runtime = %.4g · A^%.4g", c.B, c.A)
}

// Errors returned by Fit.
var (
	ErrTooFewPoints = errors.New("pcc: need at least two distinct points to fit")
	ErrBadSample    = errors.New("pcc: samples require tokens ≥ 1 and runtime > 0")
)

// condEps is the conditioning threshold for the least-squares denominator:
// fits whose log-token spread contributes less than condEps of the raw
// second moment are numerically rank-deficient.
const condEps = 1e-12

// Sample is one (tokens, runtime) observation used for fitting.
type Sample struct {
	Tokens  float64
	Runtime float64
}

// Fit estimates the power-law parameters by ordinary least squares in
// log–log space: log R = log b + a·log A (Figure 9). It requires at least
// two samples with distinct token counts, all with tokens ≥ 1 and positive
// run time.
func Fit(samples []Sample) (Curve, error) {
	n := len(samples)
	if n < 2 {
		return Curve{}, ErrTooFewPoints
	}
	var sumX, sumY, sumXX, sumXY float64
	first := math.Log(samples[0].Tokens)
	distinct := false
	for _, s := range samples {
		if s.Tokens < 1 || s.Runtime <= 0 {
			return Curve{}, fmt.Errorf("%w: got tokens=%v runtime=%v", ErrBadSample, s.Tokens, s.Runtime)
		}
		x := math.Log(s.Tokens)
		y := math.Log(s.Runtime)
		if math.Abs(x-first) > 1e-12 {
			distinct = true
		}
		sumX += x
		sumY += y
		sumXX += x * x
		sumXY += x * y
	}
	if !distinct {
		return Curve{}, ErrTooFewPoints
	}
	fn := float64(n)
	// den = n·Σ(x−x̄)² up to rounding. When the spread in log-tokens is
	// tiny relative to its magnitude — token counts differing by just
	// over the distinctness epsilon — the subtraction cancels
	// catastrophically, den collapses toward 0 and the slope blows up to
	// ±Inf/NaN. Such systems carry no usable slope information, so they
	// are rejected like coincident points rather than letting Valid()
	// catch garbage parameters downstream.
	den := fn*sumXX - sumX*sumX
	if den <= condEps*fn*sumXX {
		return Curve{}, ErrTooFewPoints
	}
	a := (fn*sumXY - sumX*sumY) / den
	logB := (sumY - a*sumX) / fn
	return Curve{A: a, B: math.Exp(logB)}, nil
}

// FitIntPoints fits from integer (tokens, runtime) pairs, skipping
// non-positive run times (zero-length simulated skylines).
func FitIntPoints(tokens, runtimes []int) (Curve, error) {
	if len(tokens) != len(runtimes) {
		return Curve{}, fmt.Errorf("pcc: %d token points vs %d runtimes", len(tokens), len(runtimes))
	}
	samples := make([]Sample, 0, len(tokens))
	for i := range tokens {
		if runtimes[i] <= 0 {
			continue
		}
		samples = append(samples, Sample{Tokens: float64(tokens[i]), Runtime: float64(runtimes[i])})
	}
	return Fit(samples)
}

// RSquared returns the coefficient of determination of the fit in log–log
// space over the given samples — how much of the log-runtime variance the
// power law explains.
func (c Curve) RSquared(samples []Sample) float64 {
	if len(samples) == 0 || !c.Valid() {
		return 0
	}
	var meanY float64
	ys := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = math.Log(s.Runtime)
		meanY += ys[i]
	}
	meanY /= float64(len(samples))
	var ssRes, ssTot float64
	logB := math.Log(c.B)
	for i, s := range samples {
		pred := logB + c.A*math.Log(s.Tokens)
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// DefaultThreshold is the §2.1 termination threshold a caller gets when
// it names none: at least a 1% run-time improvement per extra token.
const DefaultThreshold = 0.01

// OptimalTokens returns the smallest allocation (within [minTokens,
// maxTokens]) at which the marginal performance gain from one more token
// drops below threshold — the §2.1 termination rule, e.g. threshold = 0.01
// demands at least a 1% run-time improvement per extra token. For
// non-increasing curves the marginal relative gain |R′(A)|/R(A) = |a|/A is
// decreasing in A, so the rule picks the first A with |a|/A < threshold.
// Curves that are not non-increasing get minTokens: more tokens never help.
func (c Curve) OptimalTokens(minTokens, maxTokens int, threshold float64) int {
	if minTokens < 1 {
		minTokens = 1
	}
	if maxTokens < minTokens {
		maxTokens = minTokens
	}
	if !c.NonIncreasing() || threshold <= 0 {
		return minTokens
	}
	// |a|/A < threshold  ⇔  A > |a|/threshold. The division can leave the
	// float domain: a = −Inf (or a finite magnitude like −1e300 over a
	// denormal threshold) overflows to +Inf, and −(−Inf)/+Inf is NaN.
	// Converting a non-finite or out-of-range float to int is
	// implementation-defined in Go, so clamp in float space first: NaN
	// carries no slope information (contract floor), and anything at or
	// beyond maxTokens saturates the cap.
	raw := math.Ceil(-c.A / threshold)
	if math.IsNaN(raw) {
		return minTokens
	}
	if raw >= float64(maxTokens) {
		return maxTokens
	}
	opt := int(raw)
	if opt < minTokens {
		return minTokens
	}
	return opt
}

// TokensForSlowdown returns the smallest allocation whose predicted run
// time stays within maxSlowdown (e.g. 0.10 for 10%) of the run time at the
// reference allocation — the paper's §1 notion of trading a bounded
// performance loss for resource savings. For a power law the bound has a
// closed form: R(A)/R(ref) = (A/ref)ᵃ ≤ 1+s  ⇔  A ≥ ref·(1+s)^{1/a}.
// Curves that are not strictly decreasing return the reference unchanged
// only when flat curves cannot justify savings — a flat curve (a = 0)
// predicts no slowdown at any allocation, so the minimum of 1 is returned.
func (c Curve) TokensForSlowdown(reference int, maxSlowdown float64) int {
	if reference < 1 {
		reference = 1
	}
	if !c.NonIncreasing() || maxSlowdown <= 0 {
		return reference
	}
	if c.A == 0 {
		return 1
	}
	// Same float→int hazard as OptimalTokens: a = −Inf gives 1/a = −0 and
	// (1+s)^{−0} = 1 (reference unchanged), but degenerate slowdowns (NaN,
	// s = −1 with a fractional exponent) can leave the product non-finite,
	// and int(NaN/±Inf) is implementation-defined. Clamp in float space.
	raw := math.Ceil(float64(reference) * math.Pow(1+maxSlowdown, 1/c.A))
	if math.IsNaN(raw) || raw >= float64(reference) {
		return reference
	}
	tok := int(raw)
	if tok < 1 {
		tok = 1
	}
	return tok
}

// Elbow locates the "knee" of the curve over [minTokens, maxTokens] using
// the maximum-distance-to-chord method: the point on the curve farthest
// from the straight line joining its endpoints (the red marker in
// Figure 3). Returns minTokens for degenerate ranges.
//
// For a power law the normalized chord distance |nx − ny| is concave in
// the token count — ny is monotone with curvature of constant sign, so the
// curve stays on one side of its chord — which makes the maximizer the
// unique stationary point R′(t) = Δy/Δx. That gives a closed form in O(1)
// instead of the former O(maxTokens) integer scan:
//
//	t* = (Δy / (Δx·a·b))^(1/(a−1))
//
// and the discrete argmax is one of ⌊t*⌋, ⌈t*⌉ clamped to the range.
func (c Curve) Elbow(minTokens, maxTokens int) int {
	if minTokens < 1 {
		minTokens = 1
	}
	if maxTokens <= minTokens {
		return minTokens
	}
	if math.IsNaN(c.A) || math.IsInf(c.A, 0) || math.IsNaN(c.B) || math.IsInf(c.B, 0) {
		return minTokens
	}
	x1, y1 := float64(minTokens), c.Runtime(float64(minTokens))
	x2, y2 := float64(maxTokens), c.Runtime(float64(maxTokens))
	// Normalize both axes so the chord distance is scale-free.
	dx, dy := x2-x1, y2-y1
	if dy == 0 {
		// Flat curve (a = 0 or b = 0): ny ≡ 0 and the distance |nx|
		// grows with tokens, so the far endpoint wins.
		return maxTokens
	}
	if c.A == 1 {
		// Linear curve: it lies on its own chord, every distance is 0
		// and the scan's first-strict-improvement rule keeps minTokens.
		return minTokens
	}
	// Stationary point of the chord distance: R′(t) = Δy/Δx. The ratio is
	// positive because dy carries the sign of R′ (R is monotone).
	t := math.Pow(dy/(dx*c.A*c.B), 1/(c.A-1))
	lo, hi := minTokens, minTokens
	switch tf := math.Floor(t); {
	case math.IsNaN(tf) || tf < float64(minTokens):
		lo, hi = minTokens, minTokens
	case tf >= float64(maxTokens):
		lo, hi = maxTokens, maxTokens
	default:
		lo = int(tf)
		hi = lo + 1
		if hi > maxTokens {
			hi = maxTokens
		}
	}
	dist := func(tok int) float64 {
		nx := (float64(tok) - x1) / dx
		ny := (c.Runtime(float64(tok)) - y1) / dy
		return math.Abs(nx - ny)
	}
	// Candidates in ascending order with strict improvement reproduce the
	// scan's tie-breaking (first maximizer wins). The endpoints both have
	// distance 0, so checking minTokens seeds the comparison.
	best, bestDist := minTokens, dist(minTokens)
	for _, tok := range []int{lo, hi, maxTokens} {
		if d := dist(tok); d > bestDist {
			best, bestDist = tok, d
		}
	}
	return best
}

// TrendPoints evaluates the curve at each allocation, for rendering or
// comparing predicted PCCs.
func (c Curve) TrendPoints(tokens []int) []float64 {
	out := make([]float64, len(tokens))
	for i, tok := range tokens {
		out[i] = c.Runtime(float64(tok))
	}
	return out
}

// IsMonotoneNonIncreasing reports whether a series of run-time values never
// increases, within a relative tolerance: an increase of up to tol×previous
// is forgiven (the paper's 10% environmental-noise tolerance in §5.1 uses
// the same idea). Used for the Pattern metric of Tables 4–6.
func IsMonotoneNonIncreasing(runtimes []float64, tol float64) bool {
	for i := 1; i < len(runtimes); i++ {
		if runtimes[i] > runtimes[i-1]*(1+tol) {
			return false
		}
	}
	return true
}
