package core

import (
	"math"
	"sort"
)

// This file implements two more of the paper's future-work items:
// automatic K selection (item 2) and additional explicit diagnosis
// error functions (item 5). All additions go through the same
// machinery as the built-in methods, so they compose with dictionaries
// and behavior matrices unchanged.

// ErrorFunc maps a suspect's per-pattern consistency vector φ to an
// error value; diagnosis ranks suspects by ascending error. AlgRev is
// the special case Σ(1-φ)².
type ErrorFunc func(phi []float64) float64

// Named error functions beyond the paper's four methods. Each embodies
// a different answer to Figure 2's question of what a "better match"
// means:
//
//   - "L1": Σ|1-φ| — linear penalty; less dominated by the single
//     worst pattern than Alg_rev's squares.
//   - "chebyshev": max(1-φ) — only the worst pattern matters.
//   - "loglik": −Σ log max(φ, ε) — the proper log-likelihood of the
//     behavior under the independence model. It is Method III in the
//     log domain with an ε floor, which repairs Method III's collapse:
//     one inconsistent pattern costs −log ε instead of zeroing the
//     whole product.
var ErrorFuncs = map[string]ErrorFunc{
	"L1": func(phi []float64) float64 {
		sum := 0.0
		for _, p := range phi {
			sum += math.Abs(1 - p)
		}
		return sum
	},
	"chebyshev": func(phi []float64) float64 {
		worst := 0.0
		for _, p := range phi {
			if e := 1 - p; e > worst {
				worst = e
			}
		}
		return worst
	},
	"loglik": func(phi []float64) float64 {
		const eps = 1e-6
		sum := 0.0
		for _, p := range phi {
			if p < eps {
				p = eps
			}
			sum -= math.Log(p)
		}
		return sum
	},
}

// ErrorFuncNames returns the registry keys in deterministic order.
func ErrorFuncNames() []string {
	names := make([]string, 0, len(ErrorFuncs))
	for n := range ErrorFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

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

// DiagnoseErrorFunc ranks suspects of the compressed form with a
// custom error function (ascending error, arc-ID tie-break), mirroring
// Dictionary.DiagnoseErrorFunc so stored dictionaries support the
// extension error functions too.
func (cd *CompressedDictionary) DiagnoseErrorFunc(b *Behavior, fn ErrorFunc) []Ranked {
	diagnoses.Inc()
	out := make([]Ranked, len(cd.Suspects))
	// The failing counts depend only on b: compute them once. phi is
	// still allocated per suspect because fn is caller-supplied and may
	// legitimately retain the slice.
	failing := make([]int, cd.cols)
	countFailing(b, failing)
	for si, arc := range cd.Suspects {
		phi := make([]float64, cd.cols)
		cd.patternConsistencyInto(phi, failing, si, b)
		out[si] = Ranked{Arc: arc, Score: fn(phi)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score < out[j].Score {
			return true
		}
		if out[i].Score > out[j].Score {
			return false
		}
		return out[i].Arc < out[j].Arc
	})
	return out
}

// DiagnoseNamed ranks suspects of the compressed form with a
// registered error function.
func (cd *CompressedDictionary) DiagnoseNamed(b *Behavior, name string) ([]Ranked, bool) {
	fn, ok := ErrorFuncs[name]
	if !ok {
		return nil, false
	}
	return cd.DiagnoseErrorFunc(b, fn), true
}
