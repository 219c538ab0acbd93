package core

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/timing/engine"
)

// handDict builds a dictionary with explicit signature matrices for
// formula-level tests (no simulation involved): each signature is a
// rows × cols matrix, row-major, stored as its suspect's E over M = 0,
// so the derived S = E − 0 is the signature exactly. Suspect i is
// arc i.
func handDict(rows, cols int, sigs ...[]float64) *Dictionary {
	suspects := make([]circuit.ArcID, len(sigs))
	for i := range suspects {
		suspects[i] = circuit.ArcID(i)
	}
	return labeledDict(suspects, rows, cols, sigs...)
}

// labeledDict is handDict with suspect i at arc suspects[i].
func labeledDict(suspects []circuit.ArcID, rows, cols int, sigs ...[]float64) *Dictionary {
	var e []float64
	for _, s := range sigs {
		if len(s) != rows*cols {
			panic("handDict: signature shape")
		}
		e = append(e, s...)
	}
	return denseDict(suspects, rows, cols, make([]float64, rows*cols), e)
}

// descendingArcs returns n arc IDs in descending order, so a ranking
// that kept input order inside a tie would break on descending IDs.
func descendingArcs(n int) []circuit.ArcID {
	arcs := make([]circuit.ArcID, n)
	for i := range arcs {
		arcs[i] = circuit.ArcID(100 - 7*i)
	}
	return arcs
}

// denseDict builds the dictionary of M and the dense E block
// e[(si*rows + i)*cols + j], whose every cell it passes to
// NewDictionary.
func denseDict(suspects []circuit.ArcID, rows, cols int, m, e []float64) *Dictionary {
	cells := make([]engine.ECell, len(e))
	for k, v := range e {
		cells[k] = engine.ECell{K: k, E: v}
	}
	return NewDictionary(suspects, rows, cols, m, cells)
}

// eRow writes suspect si's E_crt into row (Rows × Cols, row-major):
// M at every cell the suspect stores no entry for.
func eRow(d *Dictionary, si int, row []float64) {
	n := len(d.M)
	copy(row, d.M)
	for _, c := range d.E {
		if c.K/n == si {
			row[c.K%n] = c.E
		}
	}
}

// denseE expands d's E into the dense block E[(si*Rows + i)*Cols + j].
func denseE(d *Dictionary) []float64 {
	n := len(d.M)
	e := make([]float64, len(d.Suspects)*n)
	for si := range d.Suspects {
		eRow(d, si, e[si*n:(si+1)*n])
	}
	return e
}

// signature returns suspect si's S_crt = max(E_crt − M_crt, 0) at cell
// k = i*Cols + j: the float operations the dictionary derives its
// signature classes with.
func (d *Dictionary) signature(si, k int) float64 {
	e := d.M[k]
	for _, c := range d.E {
		if c.K == si*len(d.M)+k {
			e = c.E
		}
	}
	s := e - d.M[k]
	if s < 0 {
		s = 0
	}
	return s
}

// TestExampleE1 reproduces Example E.1 of the paper: B_j = [0,1,1],
// S_j = [0.4,0.3,0.1] gives P_j = [0.6,0.3,0.1] and φ_j = 0.018.
func TestExampleE1(t *testing.T) {
	b := NewBehavior(3, 1)
	b.Set(1, 0, true)
	b.Set(2, 0, true)
	d := handDict(3, 1, []float64{0.4, 0.3, 0.1})
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
	f1 := []float64{0.8, 0.5, 0.4, 0.6}
	f2 := []float64{0.6, 0.2, 0.3, 0.5}
	// Behavior: PO1 fails vec1 and vec2? Figure 2: PO1 = [1, 0],
	// PO2 = [0, 1].
	b := NewBehavior(2, 2)
	b.Set(0, 0, true)
	b.Set(1, 1, true)
	d := handDict(2, 2, f1, f2)
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
	spiky := []float64{0.9, 0.05} // φ = [0.9, 0.05]
	flat := []float64{0.5, 0.5}   // φ = [0.5, 0.5]
	b := NewBehavior(1, 2)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	d := handDict(1, 2, spiky, flat) // arcs 0 (spiky), 1 (flat)
	if top := d.Diagnose(b, MethodI, 0)[0].Arc; top != 0 {
		t.Errorf("Method I top = arc %d, want spiky (0)", top)
	}
	if top := d.Diagnose(b, AlgRev, 0)[0].Arc; top != 1 {
		t.Errorf("AlgRev top = arc %d, want flat (1)", top)
	}
}

func TestDiagnoseRankingDirection(t *testing.T) {
	// Suspect 0: perfect match (φ = 1 per pattern).
	// Suspect 1: no match (φ = 0).
	perfect := []float64{1, 1}
	awful := []float64{0, 0}
	b := NewBehavior(1, 2)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	d := handDict(1, 2, awful, perfect) // arcs 0, 1
	for _, m := range Methods {
		ranked := d.Diagnose(b, m, 0)
		if len(ranked) != 2 {
			t.Fatalf("%v: ranked %d", m, len(ranked))
		}
		if ranked[0].Arc != 1 {
			t.Errorf("%v ranked the non-matching suspect first", m)
		}
	}
}

func TestDiagnoseTieBreakDeterministic(t *testing.T) {
	b := NewBehavior(1, 1)
	d := handDict(1, 1, []float64{0.5}, []float64{0.5})
	ranked := d.Diagnose(b, MethodII, 0)
	if ranked[0].Arc != 0 || ranked[1].Arc != 1 {
		t.Errorf("tie not broken by arc ID: %v", ranked)
	}
}

func TestDiagnoseErrorFunc(t *testing.T) {
	b := NewBehavior(1, 1)
	b.Set(0, 0, true)
	d := handDict(1, 1, []float64{0.1}, []float64{0.9}) // arcs 0 (bad), 1 (good)
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
