package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Empirical is a distribution defined by a finite sample, as produced by
// Monte-Carlo statistical timing analysis. It is the concrete form of
// the arrival-time and timing-length random variables (Ar(o), TL(p)) in
// the paper's framework: the statistical simulator draws many circuit
// instances and the resulting per-instance values form the sample.
type Empirical struct {
	xs []float64 // sorted ascending
}

// NewEmpirical builds an Empirical distribution from sample values.
// The input slice is copied and sorted. It panics on an empty sample.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("dist: empty sample for Empirical")
	}
	xs := make([]float64, len(samples))
	copy(xs, samples)
	sort.Float64s(xs)
	return &Empirical{xs: xs}
}

// Sample draws one value uniformly from the stored sample (bootstrap
// resampling).
func (e *Empirical) Sample(r *rand.Rand) float64 { return e.xs[r.IntN(len(e.xs))] }

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 {
	s := 0.0
	for _, x := range e.xs {
		s += x
	}
	return s / float64(len(e.xs))
}

// Variance returns the unbiased sample variance (0 for a single sample).
func (e *Empirical) Variance() float64 {
	n := len(e.xs)
	if n < 2 {
		return 0
	}
	m := e.Mean()
	s := 0.0
	for _, x := range e.xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the sample standard deviation.
func (e *Empirical) Std() float64 { return math.Sqrt(e.Variance()) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics.
func (e *Empirical) Quantile(q float64) float64 {
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	pos := q * float64(len(e.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return e.xs[lo]
	}
	frac := pos - float64(lo)
	return e.xs[lo]*(1-frac) + e.xs[hi]*frac
}

// Exceed returns the empirical critical probability P(X > x)
// (Definition D.6 with cut-off period x): one minus the fraction of
// samples <= x, found by binary search for the first index > x.
func (e *Empirical) Exceed(x float64) float64 {
	n := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return 1 - float64(n)/float64(len(e.xs))
}

func (e *Empirical) String() string {
	return fmt.Sprintf("Emp(n=%d, µ=%.4g, σ=%.4g)", len(e.xs), e.Mean(), e.Std())
}
