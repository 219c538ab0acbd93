// Package dist provides the probability-distribution substrate for the
// statistical timing model: parametric random variables (normal,
// truncated normal, uniform), empirical distributions built from
// Monte-Carlo samples, and Clark's analytic max operator (MaxNormal)
// used by the analytic timing engine.
//
// Delays are real-valued and measured in arbitrary time units (the cell
// library fixes the scale); all delay distributions used by the timing
// model are truncated at zero, matching Definition D.1 of the paper
// (delay random variables are defined over [0, +inf]).
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Dist is a one-dimensional random variable that can be sampled and
// summarized. All delay and defect-size models implement it.
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
	// Mean returns the expected value.
	Mean() float64
	// Variance returns the variance.
	Variance() float64
}

// Distribution is the read-only summary surface the diagnosis core
// consumes from a timing engine: location, spread, quantiles and
// exceedance (critical) probabilities. *Empirical (Monte-Carlo
// engines) and Normal (analytic engines) both implement it, so code
// that picks a cut-off period or reads a critical probability is
// engine-agnostic.
type Distribution interface {
	// Mean returns the expected value.
	Mean() float64
	// Std returns the standard deviation.
	Std() float64
	// Quantile returns the q-quantile (0 <= q <= 1).
	Quantile(q float64) float64
	// Exceed returns P(X > x).
	Exceed(x float64) float64
}

// Normal is the Gaussian distribution N(Mu, Sigma²).
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a normal variate.
func (n Normal) Sample(r *rand.Rand) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns Sigma².
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// Std returns Sigma.
func (n Normal) Std() float64 { return n.Sigma }

// Exceed returns P(X > x) via the complementary normal CDF.
func (n Normal) Exceed(x float64) float64 {
	if n.Sigma == 0 {
		if n.Mu > x {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the q-quantile via the probit function. q <= 0 and
// q >= 1 clamp to ∓Inf only for Sigma > 0; a degenerate normal
// (Sigma == 0) returns Mu for every q, the quantile of a point mass.
func (n Normal) Quantile(q float64) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	switch {
	case q <= 0:
		return math.Inf(-1)
	case q >= 1:
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*q-1)
}

func (n Normal) String() string { return fmt.Sprintf("N(%g, %g²)", n.Mu, n.Sigma) }

// TruncNormal is a Gaussian truncated to [Lo, +inf). Sampling is by
// rejection with a clamp fallback; for the σ/µ ratios used in delay
// models (σ ≲ µ/3) rejection essentially never triggers, so the clamp
// bias is negligible while the support guarantee is absolute.
type TruncNormal struct {
	Mu    float64
	Sigma float64
	Lo    float64
}

// Sample draws a truncated normal variate (never below Lo).
func (t TruncNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 8; i++ {
		v := t.Mu + t.Sigma*r.NormFloat64()
		if v >= t.Lo {
			return v
		}
	}
	return t.Lo
}

// Mean returns the mean of the underlying (untruncated) normal; for the
// regimes used by the delay model the truncation shift is < 1e-3·σ.
func (t TruncNormal) Mean() float64 { return t.Mu }

// Variance returns the variance of the underlying normal.
func (t TruncNormal) Variance() float64 { return t.Sigma * t.Sigma }

func (t TruncNormal) String() string {
	return fmt.Sprintf("N(%g, %g²)|[%g,∞)", t.Mu, t.Sigma, t.Lo)
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Variance returns (Hi-Lo)²/12.
func (u Uniform) Variance() float64 { d := u.Hi - u.Lo; return d * d / 12 }

func (u Uniform) String() string { return fmt.Sprintf("U[%g, %g]", u.Lo, u.Hi) }
