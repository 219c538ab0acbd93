package atpg

import (
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
)

// arcCoverageScalar is the one-pattern-at-a-time reference
// implementation: the oracle the word-parallel ArcCoverage is tested
// against, kept verbatim from the pre-kernel code.
func arcCoverageScalar(c *circuit.Circuit, pats []logicsim.PatternPair) *CoverageResult {
	res := newCoverageResult(c)
	perPattern := c.NewArcSet()
	for _, p := range pats {
		tr := logicsim.SimulatePair(c, p)
		for i := range perPattern {
			perPattern[i] = false
		}
		for oi := range c.Outputs {
			for _, aid := range logicsim.SensitizedArcs(c, tr, oi).IDs() {
				if c.Gates[c.Arcs[aid].To].Type == circuit.Output {
					continue
				}
				perPattern[aid] = true
				if !res.CoveredSet[aid] {
					res.CoveredSet[aid] = true
					res.Covered++
				}
			}
		}
		for aid, hit := range perPattern {
			if hit {
				res.Detects[aid]++
			}
		}
		res.PerPattern = append(res.PerPattern, res.Covered)
	}
	return res
}

func TestArcCoverageSimple(t *testing.T) {
	c, err := benchfmt.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n", "and2", false)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a with b = 1: sensitizes arc a->o only (b stable).
	p1 := logicsim.PatternPair{V1: logicsim.Vector{false, true}, V2: logicsim.Vector{true, true}}
	res := ArcCoverage(c, []logicsim.PatternPair{p1})
	if res.TotalArcs != 2 {
		t.Fatalf("total = %d", res.TotalArcs)
	}
	if res.Covered != 1 {
		t.Errorf("covered = %d, want 1", res.Covered)
	}
	// Adding the symmetric pattern covers the other arc.
	p2 := logicsim.PatternPair{V1: logicsim.Vector{true, false}, V2: logicsim.Vector{true, true}}
	res = ArcCoverage(c, []logicsim.PatternPair{p1, p2})
	if res.Covered != 2 || res.Fraction() != 1 {
		t.Errorf("covered = %d fraction = %v", res.Covered, res.Fraction())
	}
	if len(res.PerPattern) != 2 || res.PerPattern[0] != 1 || res.PerPattern[1] != 2 {
		t.Errorf("curve = %v", res.PerPattern)
	}
}

func TestArcCoverageMonotone(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	pats := RandomPairs(c, 30, rng.New(7))
	res := ArcCoverage(c, pats)
	prev := 0
	for i, v := range res.PerPattern {
		if v < prev {
			t.Fatalf("coverage curve decreased at %d", i)
		}
		prev = v
	}
	if res.Covered != res.PerPattern[len(res.PerPattern)-1] {
		t.Errorf("final curve point %d != covered %d", res.PerPattern[len(res.PerPattern)-1], res.Covered)
	}
	if res.Fraction() <= 0 || res.Fraction() > 1 {
		t.Errorf("fraction = %v", res.Fraction())
	}
	n := 0
	for _, v := range res.CoveredSet {
		if v {
			n++
		}
	}
	if n != res.Covered {
		t.Errorf("set count %d != covered %d", n, res.Covered)
	}
}

func TestNDetectCounts(t *testing.T) {
	c, err := benchfmt.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n", "and2", false)
	if err != nil {
		t.Fatal(err)
	}
	p1 := logicsim.PatternPair{V1: logicsim.Vector{false, true}, V2: logicsim.Vector{true, true}}
	// The same pattern twice: arc a->o detected by both.
	res := ArcCoverage(c, []logicsim.PatternPair{p1, p1})
	o, _ := c.GateByName("o")
	if res.Detects[o.InArcs[0]] != 2 {
		t.Errorf("detects = %d, want 2", res.Detects[o.InArcs[0]])
	}
	if res.Detects[o.InArcs[1]] != 0 {
		t.Errorf("uncovered arc has detects %d", res.Detects[o.InArcs[1]])
	}
	if res.NDetect(1) != 1 || res.NDetect(2) != 1 || res.NDetect(3) != 0 {
		t.Errorf("NDetect counts wrong: %d/%d/%d", res.NDetect(1), res.NDetect(2), res.NDetect(3))
	}
	// NDetect(1) must equal Covered on any input.
	c2, _ := synth.GenerateNamed("mini", 1)
	pats := RandomPairs(c2, 12, rng.New(3))
	r2 := ArcCoverage(c2, pats)
	if r2.NDetect(1) != r2.Covered {
		t.Errorf("NDetect(1) %d != Covered %d", r2.NDetect(1), r2.Covered)
	}
}

func TestArcCoverageEmpty(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 1)
	res := ArcCoverage(c, nil)
	if res.Covered != 0 || len(res.PerPattern) != 0 {
		t.Errorf("empty pattern set covered %d", res.Covered)
	}
}

// TestArcCoverageMatchesScalarOracle pins the word-parallel production
// path against the scalar walk on every field, across pattern counts
// that exercise full blocks, ragged tails, and multi-block sweeps.
func TestArcCoverageMatchesScalarOracle(t *testing.T) {
	for _, profile := range []string{"mini", "small"} {
		c, err := synth.GenerateNamed(profile, 41)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 30, 64, 65, 150} {
			pats := RandomPairs(c, n, rng.New(uint64(n)))
			got := ArcCoverage(c, pats)
			want := arcCoverageScalar(c, pats)
			if got.TotalArcs != want.TotalArcs || got.Covered != want.Covered {
				t.Fatalf("%s n=%d: total/covered %d/%d, scalar %d/%d",
					profile, n, got.TotalArcs, got.Covered, want.TotalArcs, want.Covered)
			}
			for i := range want.PerPattern {
				if got.PerPattern[i] != want.PerPattern[i] {
					t.Fatalf("%s n=%d: curve[%d] = %d, scalar %d", profile, n, i, got.PerPattern[i], want.PerPattern[i])
				}
			}
			for aid := range want.Detects {
				if got.Detects[aid] != want.Detects[aid] || got.CoveredSet[aid] != want.CoveredSet[aid] {
					t.Fatalf("%s n=%d arc %d: detects/covered %d/%v, scalar %d/%v",
						profile, n, aid, got.Detects[aid], got.CoveredSet[aid], want.Detects[aid], want.CoveredSet[aid])
				}
			}
		}
	}
}
