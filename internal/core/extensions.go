package core

// This file implements the paper's future-work item 2, automatic K
// selection. Item 5, additional explicit diagnosis error functions, is
// the L1, Chebyshev and LogLik methods of diagnose.go.

// AutoK chooses the answer-set size K from the shape of the ranked
// score curve (the paper's future-work item 2: "develop heuristics to
// select K automatically"). It returns the K in [1, maxK] that
// precedes the largest score gap — the natural cut between "candidates
// that explain the behavior" and "the rest" — along with the gap size
// as a confidence indicator. Scores must be in ranking order (best
// first), as returned by Diagnose.
func AutoK(ranked []Ranked, method Method, maxK int) (k int, gap float64) {
	if len(ranked) == 0 {
		return 0, 0
	}
	if maxK > len(ranked)-1 {
		maxK = len(ranked) - 1
	}
	if maxK < 1 {
		return 1, 0
	}
	k, gap = 1, -1.0
	for i := 0; i < maxK; i++ {
		var g float64
		if method.lowerIsBetter() {
			g = ranked[i+1].Score - ranked[i].Score
		} else {
			g = ranked[i].Score - ranked[i+1].Score
		}
		if g > gap {
			gap = g
			k = i + 1
		}
	}
	return k, gap
}
