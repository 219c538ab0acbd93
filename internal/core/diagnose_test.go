package core

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

// handDict builds a dictionary with explicit signature matrices for
// formula-level tests (no simulation involved).
func handDict(sigs []*Matrix) *Dictionary {
	d := &Dictionary{S: sigs, Suspects: make([]circuit.ArcID, len(sigs))}
	for i := range sigs {
		d.Suspects[i] = circuit.ArcID(i)
	}
	return d
}

// TestExampleE1 reproduces Example E.1 of the paper: B_j = [0,1,1],
// S_j = [0.4,0.3,0.1] gives P_j = [0.6,0.3,0.1] and φ_j = 0.018.
func TestExampleE1(t *testing.T) {
	s := NewMatrix(3, 1)
	s.Set(0, 0, 0.4)
	s.Set(1, 0, 0.3)
	s.Set(2, 0, 0.1)
	b := NewBehavior(3, 1)
	b.Set(1, 0, true)
	b.Set(2, 0, true)
	d := handDict([]*Matrix{s})
	phi := d.PatternConsistency(0, b)
	if len(phi) != 1 || math.Abs(phi[0]-0.018) > 1e-12 {
		t.Errorf("φ = %v, want [0.018]", phi)
	}
}

func TestMethodScores(t *testing.T) {
	phi := []float64{0.5, 0.2}
	if got := MethodI.Score(phi); math.Abs(got-(1-0.5*0.8)) > 1e-12 {
		t.Errorf("Method I = %v", got)
	}
	if got := MethodII.Score(phi); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("Method II = %v", got)
	}
	if got := MethodIII.Score(phi); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Method III = %v", got)
	}
	if got := AlgRev.Score(phi); math.Abs(got-(0.25+0.64)) > 1e-12 {
		t.Errorf("AlgRev = %v", got)
	}
}

// TestFigure2Ambiguity reproduces the Figure 2 illustration: with
// behavior [[1],[0]] per vector, fault #1 matches the "1" entries
// better and fault #2 the "0" entries — different error functions can
// prefer different faults.
func TestFigure2Ambiguity(t *testing.T) {
	// Fault #1 probabilities (2 outputs × 2 vectors): strong on the
	// failing entries. Fault #2: strong on the passing entries.
	f1 := NewMatrix(2, 2)
	f1.Set(0, 0, 0.8)
	f1.Set(0, 1, 0.5)
	f1.Set(1, 0, 0.4)
	f1.Set(1, 1, 0.6)
	f2 := NewMatrix(2, 2)
	f2.Set(0, 0, 0.6)
	f2.Set(0, 1, 0.2)
	f2.Set(1, 0, 0.3)
	f2.Set(1, 1, 0.5)
	// Behavior: PO1 fails vec1 and vec2? Figure 2: PO1 = [1, 0],
	// PO2 = [0, 1].
	b := NewBehavior(2, 2)
	b.Set(0, 0, true)
	b.Set(1, 1, true)
	d := handDict([]*Matrix{f1, f2})
	phi1 := d.PatternConsistency(0, b)
	phi2 := d.PatternConsistency(1, b)
	// φ for fault1 vec1: 0.8 * (1-0.4) = 0.48; vec2: (1-0.5)*0.6 = 0.30
	if math.Abs(phi1[0]-0.48) > 1e-12 || math.Abs(phi1[1]-0.30) > 1e-12 {
		t.Errorf("fault1 φ = %v", phi1)
	}
	// φ for fault2 vec1: 0.6 * 0.7 = 0.42; vec2: 0.8 * 0.5 = 0.40
	if math.Abs(phi2[0]-0.42) > 1e-12 || math.Abs(phi2[1]-0.40) > 1e-12 {
		t.Errorf("fault2 φ = %v", phi2)
	}
}

// TestErrorFunctionsDisagree shows the core point of Figure 2 and
// Section C-1: the "better match" depends on the error function. A
// candidate with one near-perfect and one poor pattern beats a
// uniformly mediocre candidate under Method I (at-least-one-pattern)
// but loses under AlgRev's Euclidean distance.
func TestErrorFunctionsDisagree(t *testing.T) {
	spiky := NewMatrix(1, 2) // φ = [0.9, 0.05]
	spiky.Set(0, 0, 0.9)
	spiky.Set(0, 1, 0.05)
	flat := NewMatrix(1, 2) // φ = [0.5, 0.5]
	flat.Set(0, 0, 0.5)
	flat.Set(0, 1, 0.5)
	b := NewBehavior(1, 2)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	d := handDict([]*Matrix{spiky, flat}) // arcs 0 (spiky), 1 (flat)
	if top := d.Diagnose(b, MethodI)[0].Arc; top != 0 {
		t.Errorf("Method I top = arc %d, want spiky (0)", top)
	}
	if top := d.Diagnose(b, AlgRev)[0].Arc; top != 1 {
		t.Errorf("AlgRev top = arc %d, want flat (1)", top)
	}
}

func TestDiagnoseRankingDirection(t *testing.T) {
	// Suspect 0: perfect match (φ = 1 per pattern).
	// Suspect 1: no match (φ = 0).
	perfect := NewMatrix(1, 2)
	perfect.Set(0, 0, 1)
	perfect.Set(0, 1, 1)
	awful := NewMatrix(1, 2)
	b := NewBehavior(1, 2)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	d := handDict([]*Matrix{awful, perfect}) // arcs 0, 1
	for _, m := range Methods {
		ranked := d.Diagnose(b, m)
		if len(ranked) != 2 {
			t.Fatalf("%v: ranked %d", m, len(ranked))
		}
		if ranked[0].Arc != 1 {
			t.Errorf("%v ranked the non-matching suspect first", m)
		}
	}
}

func TestDiagnoseTieBreakDeterministic(t *testing.T) {
	s1 := NewMatrix(1, 1)
	s2 := NewMatrix(1, 1)
	s1.Set(0, 0, 0.5)
	s2.Set(0, 0, 0.5)
	b := NewBehavior(1, 1)
	d := handDict([]*Matrix{s2, s1})
	ranked := d.Diagnose(b, MethodII)
	if ranked[0].Arc != 0 || ranked[1].Arc != 1 {
		t.Errorf("tie not broken by arc ID: %v", ranked)
	}
}

func TestDiagnoseErrorFunc(t *testing.T) {
	good := NewMatrix(1, 1)
	good.Set(0, 0, 0.9)
	bad := NewMatrix(1, 1)
	bad.Set(0, 0, 0.1)
	b := NewBehavior(1, 1)
	b.Set(0, 0, true)
	d := handDict([]*Matrix{bad, good})
	// Custom error: sum |1-φ| (L1 distance).
	ranked := d.DiagnoseErrorFunc(b, func(phi []float64) float64 {
		sum := 0.0
		for _, p := range phi {
			sum += math.Abs(1 - p)
		}
		return sum
	})
	if ranked[0].Arc != 1 {
		t.Errorf("custom error function ranking wrong: %v", ranked)
	}
}

func TestHitWithin(t *testing.T) {
	ranked := []Ranked{{Arc: 5}, {Arc: 9}, {Arc: 2}}
	if !hitWithin(ranked, 9, 2) {
		t.Errorf("miss at k=2")
	}
	if hitWithin(ranked, 2, 2) {
		t.Errorf("false hit at k=2")
	}
	if !hitWithin(ranked, 2, 50) {
		t.Errorf("k beyond length should clamp")
	}
	if hitWithin(ranked, 42, 3) {
		t.Errorf("absent arc hit")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range Methods {
		if m.String() == "" {
			t.Errorf("empty name for method %d", int(m))
		}
	}
	if Method(99).String() == "" {
		t.Errorf("unknown method name empty")
	}
}

func TestMethodIIIZeroCollapse(t *testing.T) {
	// One inconsistent pattern zeroes Method III — the paper's
	// observation that Method III is too restrictive.
	phi := []float64{0.9, 0.0, 0.8}
	if MethodIII.Score(phi) != 0 {
		t.Errorf("Method III should collapse to 0")
	}
	if MethodI.Score(phi) == 0 || MethodII.Score(phi) == 0 {
		t.Errorf("Methods I/II should survive one zero pattern")
	}
}

// hitWithin reports whether the true defect arc appears among the
// first k ranked candidates — the paper's success criterion.
func hitWithin(ranked []Ranked, truth circuit.ArcID, k int) bool {
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, r := range ranked[:k] {
		if r.Arc == truth {
			return true
		}
	}
	return false
}
