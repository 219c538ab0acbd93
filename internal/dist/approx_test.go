package dist

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{0, 0, DefaultTol, true},
		{1, 1, 0, true},
		{1, 1 + 1e-15, DefaultTol, true},           // last-ulp noise
		{0, 1e-13, DefaultTol, true},               // absolute near zero
		{0.3, 0.1 + 0.2, DefaultTol, true},         // classic rounding
		{1e9, 1e9 * (1 + 1e-14), DefaultTol, true}, // relative at scale
		{0.5, 0.5 + 1e-6, DefaultTol, false},
		{1, 2, DefaultTol, false},
		{math.Inf(1), math.Inf(1), DefaultTol, true},
		{math.Inf(1), 1, DefaultTol, false},
		{math.NaN(), math.NaN(), DefaultTol, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
