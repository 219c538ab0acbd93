package dist

import "math"

// DefaultTol is the tolerance used by probability comparisons when the
// caller has no better scale: ~1e4 ulps at unit scale, far below any
// statistically meaningful difference between success rates yet far
// above accumulated Clark-operator rounding.
const DefaultTol = 1e-12

// ApproxEqual reports whether a and b are equal within tol, using the
// larger of an absolute and a relative criterion so it behaves
// sensibly both near zero (probabilities) and at large magnitudes
// (accumulated path delays). It is one of the approved comparison
// helpers enforced by the floateq analyzer; see DESIGN.md.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) || math.IsNaN(diff) {
		return false
	}
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
