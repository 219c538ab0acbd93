package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/circuit"
)

// allMethods is the paper's four methods followed by the extension
// error functions.
var allMethods = append(append([]Method(nil), Methods...), Extensions...)

// sortRankedScalar is the per-form score-and-sort comparator the
// dictionary forms used before they shared rank: best first in the
// method's direction, ties on ascending arc ID.
func sortRankedScalar(out []Ranked, lowerIsBetter bool) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score < out[j].Score {
			return lowerIsBetter
		}
		if out[i].Score > out[j].Score {
			return !lowerIsBetter
		}
		return out[i].Arc < out[j].Arc
	})
}

// diagnoseDenseScalar is the reference loop for Dictionary.Diagnose: a
// fresh φ per suspect, scored, then sorted.
func diagnoseDenseScalar(d *Dictionary, b *Behavior, m Method) []Ranked {
	out := make([]Ranked, len(d.Suspects))
	for si, arc := range d.Suspects {
		out[si] = Ranked{Arc: arc, Score: m.Score(d.PatternConsistency(si, b))}
	}
	sortRankedScalar(out, m.lowerIsBetter())
	return out
}

// diagnoseCompressedScalar is the reference loop for
// CompressedDictionary.Diagnose.
func diagnoseCompressedScalar(cd *CompressedDictionary, b *Behavior, m Method) []Ranked {
	out := make([]Ranked, len(cd.Suspects))
	for si, arc := range cd.Suspects {
		out[si] = Ranked{Arc: arc, Score: m.Score(sparsePhi(cd, si, b))}
	}
	sortRankedScalar(out, m.lowerIsBetter())
	return out
}

// tieDict builds a dictionary whose suspects come in groups sharing one
// signature, so every method sees groups of exactly equal scores. The
// arc IDs run in descending order through d.Suspects, so a ranking
// that kept input order inside a tie would break on descending IDs.
func tieDict() (*Dictionary, *Behavior) {
	const rows, cols = 2, 3
	sigs := [][]float64{
		{0.6, 0.2, 0.8, 0.4, 1, 0.5}, // a partial match
		{0, 0, 0, 0, 0, 0},           // explains nothing: φ = 0 on every failing pattern
		{1, 0, 1, 0, 0, 1},           // a perfect match of b below
		{0.3, 0.3, 0.3, 0.3, 0.3, 0.3},
	}
	d := &Dictionary{}
	for g := 0; g < 3; g++ {
		for _, sig := range sigs {
			m := NewMatrix(rows, cols)
			copy(m.Data, sig)
			d.S = append(d.S, m)
		}
	}
	for i := range d.S {
		d.Suspects = append(d.Suspects, circuit.ArcID(100-7*i))
	}
	d.M = NewMatrix(rows, cols)
	b := NewBehavior(rows, cols)
	for k, v := range sigs[2] {
		if v == 1 {
			b.Set(k/cols, k%cols, true)
		}
	}
	return d, b
}

func sameRanking(t *testing.T, what string, got, want []Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Arc != want[i].Arc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: position %d = %+v, want %+v", what, i+1, got[i], want[i])
		}
	}
}

// TestRankMatchesScalarOracle checks both dictionary forms under every
// method against the reference loops, on a fixture of exact ties and
// on random dictionaries.
func TestRankMatchesScalarOracle(t *testing.T) {
	d, b := tieDict()
	cd := Compress(d)
	for _, m := range allMethods {
		dense := d.Diagnose(b, m)
		sameRanking(t, m.String()+" dense", dense, diagnoseDenseScalar(d, b, m))
		sameRanking(t, m.String()+" compressed", cd.Diagnose(b, m), diagnoseCompressedScalar(cd, b, m))
		ties := 0
		for i := 1; i < len(dense); i++ {
			if dense[i].Score == dense[i-1].Score {
				ties++
				if dense[i].Arc < dense[i-1].Arc {
					t.Errorf("%v: tie at position %d breaks on descending arc ID", m, i+1)
				}
			}
		}
		if ties == 0 {
			t.Errorf("%v: fixture produced no exactly equal scores", m)
		}
	}
	for seed := uint64(1); seed <= 40; seed++ {
		d, b := randomDict(seed, 1+int(seed%9), 1+int(seed%4), 1+int(seed%6))
		d.M = NewMatrix(b.Rows, b.Cols)
		cd := Compress(d)
		for _, m := range allMethods {
			sameRanking(t, m.String()+" dense", d.Diagnose(b, m), diagnoseDenseScalar(d, b, m))
			sameRanking(t, m.String()+" compressed", cd.Diagnose(b, m), diagnoseCompressedScalar(cd, b, m))
		}
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range allMethods {
		got, ok := ParseMethod(m.String())
		if !ok || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, ok, m)
		}
	}
	aliases := map[string]Method{"": AlgRev, "rev": AlgRev, "I": MethodI, "II": MethodII, "III": MethodIII}
	for name, want := range aliases {
		if got, ok := ParseMethod(name); !ok || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"nosuch", "IV", "Alg_sim-IV", "Method(7)", "l1"} {
		if _, ok := ParseMethod(name); ok {
			t.Errorf("ParseMethod(%q) accepted an unknown name", name)
		}
	}
}

func TestDiagnoseErrorFuncMatchesMethod(t *testing.T) {
	d, b := tieDict()
	sameRanking(t, "DiagnoseErrorFunc(LogLik.Score)", d.DiagnoseErrorFunc(b, LogLik.Score), d.Diagnose(b, LogLik))
}
