package atpg

import (
	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// Coverage metrics for pattern sets. The paper observes that diagnosis
// accuracy "depends on the set of test patterns"; arc (segment)
// coverage — the fraction of logic arcs a pattern set statically
// sensitizes to at least one output — is the natural quantitative
// handle: an unsensitized arc can never enter the fault dictionary's
// universe, so its defects are undiagnosable by construction.

// CoverageResult reports arc coverage of a pattern set.
type CoverageResult struct {
	TotalArcs  int    // logic arcs (output-port arcs excluded)
	Covered    int    // arcs sensitized by at least one pattern
	PerPattern []int  // cumulative covered count after each pattern
	CoveredSet []bool // indexed by ArcID
	// Detects[a] counts how many patterns sensitize arc a — the
	// N-detect profile. Arcs sensitized by several patterns give the
	// dictionary several chances to differentiate them; 1-detect arcs
	// rest on a single column of evidence.
	Detects []int
}

// NDetect returns the number of covered arcs with at least n detecting
// patterns.
func (r *CoverageResult) NDetect(n int) int {
	c := 0
	for _, d := range r.Detects {
		if d >= n {
			c++
		}
	}
	return c
}

// Fraction returns covered/total.
func (r *CoverageResult) Fraction() float64 {
	if r.TotalArcs == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.TotalArcs)
}

// ArcCoverage computes which logic arcs the pattern set statically
// sensitizes toward any output, with the cumulative curve per pattern
// (the classic fault-coverage curve, over segments).
//
// The production path is word-parallel: pattern pairs are packed 64 to
// a machine word (logicsim.PackPatternPairsInto), both vectors are
// evaluated with the allocation-free EvalWordsInto kernel, and
// sensitization masks are accumulated per arc with
// SensitizedArcsWordsInto — one simulation sweep covers 64 patterns.
// The scalar walk survives in the tests as arcCoverageScalar, the
// bit-exact oracle the equivalence tests pin this kernel against.
func ArcCoverage(c *circuit.Circuit, pats []logicsim.PatternPair) *CoverageResult {
	res := newCoverageResult(c)
	nGates := len(c.Gates)
	initVals := make([]uint64, nGates)
	finalVals := make([]uint64, nGates)
	active := make([]uint64, nGates)
	arcMasks := make([]uint64, len(c.Arcs))
	initIn := make([]uint64, len(c.Inputs))
	finalIn := make([]uint64, len(c.Inputs))
	for start := 0; start < len(pats); start += 64 {
		block := pats[start:min(start+64, len(pats))]
		if _, _, err := logicsim.PackPatternPairsInto(initIn, finalIn, c, block); err != nil {
			// A width-mismatched pattern is a programmer error, exactly
			// as it was for the scalar path's Eval panic.
			panic(err)
		}
		initVals = logicsim.EvalWordsInto(initVals, c, initIn)
		finalVals = logicsim.EvalWordsInto(finalVals, c, finalIn)
		for i := range arcMasks {
			arcMasks[i] = 0
		}
		for oi := range c.Outputs {
			logicsim.SensitizedArcsWordsInto(arcMasks, active, c, initVals, finalVals, oi)
		}
		// Unpack lanes in pattern order so PerPattern reproduces the
		// scalar cumulative curve exactly. Unused tail lanes pack
		// all-zero vectors on both sides, so their mask bits are zero by
		// construction (see PackVectors' ragged-tail contract); the loop
		// bound masks them regardless.
		for b := range block {
			for aid, w := range arcMasks {
				if w>>uint(b)&1 == 0 || c.Gates[c.Arcs[aid].To].Type == circuit.Output {
					continue
				}
				res.Detects[aid]++
				if !res.CoveredSet[aid] {
					res.CoveredSet[aid] = true
					res.Covered++
				}
			}
			res.PerPattern = append(res.PerPattern, res.Covered)
		}
	}
	return res
}

func newCoverageResult(c *circuit.Circuit) *CoverageResult {
	res := &CoverageResult{
		CoveredSet: make([]bool, len(c.Arcs)),
		Detects:    make([]int, len(c.Arcs)),
	}
	for i := range c.Arcs {
		if c.Gates[c.Arcs[i].To].Type != circuit.Output {
			res.TotalArcs++
		}
	}
	return res
}
