package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// moments returns the sample mean and unbiased standard deviation of xs.
func moments(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}

func TestNormalMoments(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	r := rng.New(42)
	const N = 200000
	xs := make([]float64, N)
	for i := range xs {
		xs[i] = n.Sample(r)
	}
	m, s := moments(xs)
	if !almostEq(m, 10, 0.05) {
		t.Errorf("sample mean = %v, want ~10", m)
	}
	if !almostEq(s, 2, 0.05) {
		t.Errorf("sample std = %v, want ~2", s)
	}
}

func TestNormalExceed(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.6448536269514722, 0.05},
		{-1.6448536269514722, 0.95},
		{3, 0.0013498980316301},
	}
	for _, c := range cases {
		if got := n.Exceed(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Exceed(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Degenerate sigma behaves as a point mass.
	d := Normal{Mu: 2, Sigma: 0}
	if d.Exceed(1) != 1 || d.Exceed(3) != 0 {
		t.Errorf("degenerate Exceed wrong")
	}
}

func TestTruncNormalSupport(t *testing.T) {
	tn := TruncNormal{Mu: 1, Sigma: 2, Lo: 0}
	r := rng.New(7)
	for i := 0; i < 50000; i++ {
		if v := tn.Sample(r); v < 0 {
			t.Fatalf("sample %d below truncation: %v", i, v)
		}
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 6}
	if u.Mean() != 4 {
		t.Errorf("mean = %v", u.Mean())
	}
	if !almostEq(u.Variance(), 16.0/12.0, 1e-12) {
		t.Errorf("variance = %v", u.Variance())
	}
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 2 || v > 6 {
			t.Fatalf("sample out of range: %v", v)
		}
	}
}

func TestMaxNormalAgainstMC(t *testing.T) {
	a := Normal{Mu: 10, Sigma: 1}
	b := Normal{Mu: 10.5, Sigma: 1.5}
	approx, pAB := MaxNormal(a, b, 0)

	r := rng.New(99)
	const N = 300000
	xs := make([]float64, N)
	wins := 0
	for i := range xs {
		x, y := a.Sample(r), b.Sample(r)
		if x > y {
			wins++
		}
		xs[i] = math.Max(x, y)
	}
	m, s := moments(xs)
	if !almostEq(m, approx.Mu, 0.02) {
		t.Errorf("Clark mean %v vs MC %v", approx.Mu, m)
	}
	if !almostEq(s, approx.Sigma, 0.02) {
		t.Errorf("Clark std %v vs MC %v", approx.Sigma, s)
	}
	if mcP := float64(wins) / N; !almostEq(mcP, pAB, 0.01) {
		t.Errorf("Clark P(A>B) %v vs MC %v", pAB, mcP)
	}
}

func TestMaxNormalDegenerate(t *testing.T) {
	a := Normal{Mu: 5, Sigma: 1}
	b := Normal{Mu: 3, Sigma: 1}
	m, p := MaxNormal(a, b, 1) // theta = 0: perfectly correlated equal spread
	if m != a || p != 1 {
		t.Errorf("degenerate max = %+v p=%v, want a, 1", m, p)
	}
	m2, p2 := MaxNormal(b, a, 1)
	if m2 != a || p2 != 0 {
		t.Errorf("degenerate max = %+v p=%v, want a, 0", m2, p2)
	}
}

func TestMaxDominanceProperty(t *testing.T) {
	// Property: E[max(A,B)] >= max(E[A], E[B]) for any normals.
	f := func(muA, muB float64, sA, sB uint8) bool {
		a := Normal{Mu: muA, Sigma: 0.1 + float64(sA%50)/10}
		b := Normal{Mu: muB, Sigma: 0.1 + float64(sB%50)/10}
		m, p := MaxNormal(a, b, 0)
		return m.Mu >= math.Max(a.Mu, b.Mu)-1e-9 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
