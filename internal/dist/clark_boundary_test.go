package dist

import (
	"math"
	"testing"
)

// Boundary tests for the documented MaxNormal degenerate contract:
// theta² <= 0 resolves by mean, with a well-defined 1/2 tie at equal
// means (the two inputs are then the same random variable).
func TestMaxNormalDegenerateTie(t *testing.T) {
	a := Normal{Mu: 4, Sigma: 2}
	m, p := MaxNormal(a, a, 1) // identical inputs, perfectly correlated
	if m != a {
		t.Errorf("degenerate tie max = %+v, want %+v", m, a)
	}
	if p != 0.5 {
		t.Errorf("degenerate tie probability = %v, want 0.5", p)
	}
	// Zero-spread inputs with equal means hit the same branch via va =
	// vb = rho·σa·σb = 0.
	z := Normal{Mu: 1, Sigma: 0}
	if m, p := MaxNormal(z, z, 0); m != z || p != 0.5 {
		t.Errorf("point-mass tie = %+v p=%v, want %+v, 0.5", m, p, z)
	}
}

// The degenerate branch must stay continuous with the generic branch:
// as theta² -> 0+ with a fixed mean gap, the tie probability tends to
// 1 (or 0), matching the branch's exact answer.
func TestMaxNormalDegenerateContinuity(t *testing.T) {
	a := Normal{Mu: 5, Sigma: 1}
	b := Normal{Mu: 3, Sigma: 1}
	for _, rho := range []float64{0.9, 0.99, 0.999999} {
		if _, p := MaxNormal(a, b, rho); p < 0.97 {
			t.Errorf("rho=%v: P(A>B) = %v, want -> 1 as theta -> 0", rho, p)
		}
	}
	if _, p := MaxNormal(a, b, 1); p != 1 {
		t.Errorf("exact degenerate P(A>B) = %v, want 1", p)
	}
}

func TestNormalQuantile(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	if got := n.Quantile(0.5); math.Abs(got-10) > 1e-12 {
		t.Errorf("median = %v, want 10", got)
	}
	// Round trip against Exceed: P(X > Quantile(q)) == 1-q.
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99} {
		x := n.Quantile(q)
		if got := n.Exceed(x); math.Abs(got-(1-q)) > 1e-9 {
			t.Errorf("Exceed(Quantile(%v)) = %v, want %v", q, got, 1-q)
		}
	}
	if !math.IsInf(n.Quantile(0), -1) || !math.IsInf(n.Quantile(1), 1) {
		t.Errorf("extreme quantiles should be infinite for Sigma > 0")
	}
	d := Normal{Mu: 3, Sigma: 0}
	for _, q := range []float64{0, 0.5, 1} {
		if got := d.Quantile(q); got != 3 {
			t.Errorf("degenerate Quantile(%v) = %v, want 3", q, got)
		}
	}
}

// Both engine-facing distribution types satisfy the shared surface.
var (
	_ Distribution = Normal{}
	_ Distribution = (*Empirical)(nil)
)

// FuzzMaxNormal checks NaN/Inf hygiene: for finite means, bounded
// sigmas and rho in [-1, 1], the moment-matched max must have finite
// moments, a tie probability in [0, 1], and a mean no smaller than
// either input mean minus rounding slack.
func FuzzMaxNormal(f *testing.F) {
	f.Add(0.0, 1.0, 0.0, 1.0, 0.0)
	f.Add(5.0, 1.0, 3.0, 1.0, 1.0)
	f.Add(4.0, 2.0, 4.0, 2.0, 1.0)
	f.Add(-3.0, 0.0, -3.0, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, muA, sA, muB, sB, rho float64) {
		muA, sA = sanitizeMoments(muA, sA)
		muB, sB = sanitizeMoments(muB, sB)
		rho = sanitizeRho(rho)
		m, p := MaxNormal(Normal{muA, sA}, Normal{muB, sB}, rho)
		if math.IsNaN(m.Mu) || math.IsInf(m.Mu, 0) || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
			t.Fatalf("non-finite max %+v for A=N(%v,%v²) B=N(%v,%v²) rho=%v", m, muA, sA, muB, sB, rho)
		}
		if m.Sigma < 0 {
			t.Fatalf("negative sigma %v", m.Sigma)
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("tie probability %v out of [0,1]", p)
		}
		lo := math.Max(muA, muB)
		if m.Mu < lo-1e-9*(1+math.Abs(lo)) {
			t.Fatalf("E[max] = %v below max of means %v", m.Mu, lo)
		}
	})
}

// sanitizeMoments folds arbitrary fuzz floats into the domain the
// operators are specified over: finite means, finite nonnegative
// sigmas. Out-of-domain inputs (NaN, Inf, negative sigma) are the
// caller's bug, not the operator's, so the fuzzer normalizes them
// instead of asserting on garbage-in.
func sanitizeMoments(mu, sigma float64) (float64, float64) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		mu = 0
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		sigma = 1
	}
	sigma = math.Abs(sigma)
	// Keep magnitudes where float64 arithmetic stays exact enough for
	// the moment identities (the delay model works in O(1..1e3) units).
	mu = math.Mod(mu, 1e6)
	sigma = math.Mod(sigma, 1e6)
	return mu, sigma
}

// sanitizeRho folds an arbitrary float into a valid correlation.
func sanitizeRho(rho float64) float64 {
	if math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0
	}
	if rho > 1 {
		return 1
	}
	if rho < -1 {
		return -1
	}
	return rho
}
