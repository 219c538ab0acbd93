package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
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

// densePhi is the dense consistency loop the sparse kernel replaced:
// φ_j multiplies the factor of every output in ascending order, with
// S = max(E − M, 0) read from the suspect's expanded E row.
func densePhi(d *Dictionary, si int, b *Behavior) []float64 {
	e := make([]float64, len(d.M))
	eRow(d, si, e)
	phi := make([]float64, d.Cols)
	for j := range phi {
		p := 1.0
		for i := 0; i < d.Rows; i++ {
			k := i*d.Cols + j
			sij := e[k] - d.M[k]
			if sij < 0 {
				sij = 0
			}
			if b.At(i, j) {
				p *= sij
			} else {
				p *= 1 - sij
			}
		}
		phi[j] = p
	}
	return phi
}

// diagnoseDenseScalar is the reference loop for Dictionary.Diagnose: a
// fresh dense φ per suspect, scored, then sorted.
func diagnoseDenseScalar(d *Dictionary, b *Behavior, m Method) []Ranked {
	out := make([]Ranked, len(d.Suspects))
	for si, arc := range d.Suspects {
		out[si] = Ranked{Arc: arc, Score: m.Score(densePhi(d, si, b))}
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
	all := slices.Concat(sigs, sigs, sigs)
	d := labeledDict(descendingArcs(len(all)), rows, cols, all...)
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
		dense := d.Diagnose(b, m, 0)
		sameRanking(t, m.String()+" dense", dense, diagnoseDenseScalar(d, b, m))
		sameRanking(t, m.String()+" compressed", cd.Diagnose(b, m, 0), diagnoseCompressedScalar(cd, b, m))
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
		cd := Compress(d)
		for _, m := range allMethods {
			sameRanking(t, m.String()+" dense", d.Diagnose(b, m, 0), diagnoseDenseScalar(d, b, m))
			sameRanking(t, m.String()+" compressed", cd.Diagnose(b, m, 0), diagnoseCompressedScalar(cd, b, m))
		}
	}
}

// prefix returns the first k entries of a full ranking, all of them
// when k <= 0 or k exceeds its length.
func prefix(full []Ranked, k int) []Ranked {
	if k <= 0 || k > len(full) {
		return full
	}
	return full[:k]
}

// repeatedArcsDict builds a dictionary whose arcs repeat, as a fuzzer's
// do: one arc listed with equal and with different signatures, out of
// arc order.
func repeatedArcsDict() (*Dictionary, *Behavior) {
	d, b := tieDict()
	sigs := expand(&d.sig)
	arcs := []circuit.ArcID{40, 12, 40, 12, 7, 40, 7, 12, 40}
	pick := []int{0, 2, 0, 1, 2, 3, 3, 0, 2}
	chosen := make([][]float64, len(pick))
	for i, p := range pick {
		chosen[i] = sigs[p]
	}
	return labeledDict(arcs, d.Rows, d.Cols, chosen...), b
}

// TestDiagnosePrefix checks that Diagnose(b, m, k) returns the full
// ranking's first k entries bit for bit, under all seven methods and
// both forms, for every k from −1 to n+1: the non-positive k that mean
// "all", 1, n−1, n, n+1 and every k that cuts a tie group. The full
// rankings are checked against the reference loops first.
func TestDiagnosePrefix(t *testing.T) {
	type fixture struct {
		name string
		d    *Dictionary
		b    *Behavior
		ties bool // some k must cut a tie group
	}
	d, b := tieDict()
	rd, rb := repeatedArcsDict()
	fixtures := []fixture{{"ties", d, b, true}, {"repeated arcs", rd, rb, true}}
	for seed := uint64(1); seed <= 12; seed++ {
		d, b := randomDict(seed, 1+int(seed%9), 1+int(seed%4), 1+int(seed%6))
		fixtures = append(fixtures, fixture{fmt.Sprintf("random %d", seed), d, b, false})
	}
	for _, f := range fixtures {
		cd := Compress(f.d)
		n, cuts := len(f.d.Suspects), 0
		for _, m := range allMethods {
			full, cfull := f.d.Diagnose(f.b, m, 0), cd.Diagnose(f.b, m, 0)
			sameRanking(t, f.name+" "+m.String(), full, diagnoseDenseScalar(f.d, f.b, m))
			sameRanking(t, f.name+" "+m.String()+" compressed", cfull, diagnoseCompressedScalar(cd, f.b, m))
			for k := -1; k <= n+1; k++ {
				what := fmt.Sprintf("%s %v k=%d", f.name, m, k)
				sameRanking(t, what, f.d.Diagnose(f.b, m, k), prefix(full, k))
				sameRanking(t, what+" compressed", cd.Diagnose(f.b, m, k), prefix(cfull, k))
				if k > 0 && k < n && full[k-1].Score == full[k].Score {
					cuts++
				}
			}
		}
		if f.ties && cuts == 0 {
			t.Errorf("%s: no k cuts a tie group", f.name)
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
	sameRanking(t, "DiagnoseErrorFunc(LogLik.Score)", d.DiagnoseErrorFunc(b, LogLik.Score), d.Diagnose(b, LogLik, 0))
}

// TestDiagnoseMethodsMatchesDiagnose ranks behaviors against the signal
// golden dictionary with all seven methods in one DiagnoseMethods call
// and checks each ranking bit for bit against its own Diagnose call,
// and that the call counts one diagnosis per method. The behaviors are
// the all-pass one, each suspect's most likely one (s_ij > 1/2) and
// random ones.
func TestDiagnoseMethodsMatchesDiagnose(t *testing.T) {
	m, pats, suspects, cfg := goldenSignalDictSetup(t)
	d, err := BuildDictionary(context.Background(), m, pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := d.Rows, d.Cols
	bs := []*Behavior{NewBehavior(rows, cols)}
	for si := range d.Suspects {
		b := NewBehavior(rows, cols)
		for k := 0; k < rows*cols; k++ {
			b.Set(k/cols, k%cols, d.signature(si, k) > 0.5)
		}
		bs = append(bs, b)
	}
	r := rng.New(5)
	for n := 0; n < 8; n++ {
		b := NewBehavior(rows, cols)
		for k := 0; k < rows*cols; k++ {
			b.Set(k/cols, k%cols, r.IntN(4) == 0)
		}
		bs = append(bs, b)
	}
	for bi, b := range bs {
		before := diagnoses.Value()
		all := d.DiagnoseMethods(b, allMethods)
		if got := diagnoses.Value() - before; got != float64(len(allMethods)) {
			t.Fatalf("behavior %d: DiagnoseMethods counted %v diagnoses, want %d", bi, got, len(allMethods))
		}
		for k, meth := range allMethods {
			sameRanking(t, fmt.Sprintf("behavior %d %v", bi, meth), all[k], d.Diagnose(b, meth, 0))
		}
	}
}

// checkClasses checks signature classes: every suspect has a class,
// every class stores nonzero entries in strictly ascending cell order,
// and no two classes store equal entries.
func checkClasses(t *testing.T, sc *sigClasses, suspects int) {
	t.Helper()
	if len(sc.classOf) != suspects {
		t.Fatalf("%d class indices for %d suspects", len(sc.classOf), suspects)
	}
	for si, c := range sc.classOf {
		if c < 0 || int(c) >= sc.classes() {
			t.Fatalf("suspect %d in class %d of %d", si, c, sc.classes())
		}
	}
	for c := 0; c < sc.classes(); c++ {
		es := sc.class(c)
		for k, e := range es {
			if !(e.s > 0) || (k > 0 && cmp.Or(cmp.Compare(e.j, es[k-1].j), cmp.Compare(e.i, es[k-1].i)) <= 0) {
				t.Fatalf("class %d entry %d = %+v: zero or out of order", c, k, e)
			}
		}
		for c2 := c + 1; c2 < sc.classes(); c2++ {
			if slices.Equal(es, sc.class(c2)) {
				t.Fatalf("classes %d and %d store equal entries", c, c2)
			}
		}
	}
}

// expand expands signature classes into one dense signature matrix per
// suspect.
func expand(sc *sigClasses) [][]float64 {
	sigs := make([][]float64, len(sc.classOf))
	for si, c := range sc.classOf {
		sigs[si] = make([]float64, sc.rows*sc.cols)
		for _, e := range sc.class(int(c)) {
			sigs[si][int(e.i)*sc.cols+int(e.j)] = e.s
		}
	}
	return sigs
}

// decompress expands cd's quantized entries into a dense dictionary.
// An absent entry is exactly 0, which multiplies φ by exactly 1 or 0,
// so the dense φ equals the sparse kernel's bit for bit.
func decompress(cd *CompressedDictionary) *Dictionary {
	rows, cols := cd.Shape()
	return labeledDict(cd.Suspects, rows, cols, expand(&cd.sig)...)
}

// TestRankSignatureClasses ranks a compressed dictionary whose
// suspects repeat, omit and vary one signature, listed in descending
// arc order, under every method: against the per-suspect reference
// loop, and against the dense reference loop on the decompressed
// signatures, which shares no kernel with the compressed form.
func TestRankSignatureClasses(t *testing.T) {
	const rows, cols = 3, 4
	// Signatures as (output, pattern, probability) cells.
	type cell struct {
		i, j int
		p    float64
	}
	a := []cell{{0, 0, 0.8}, {1, 1, 0.6}, {0, 2, 0.9}, {1, 2, 0.7}}
	sigs := map[string][]cell{
		"A":     a,
		"empty": nil,
		"B":     {{2, 0, 0.5}, {0, 1, 0.4}, {1, 1, 0.3}, {2, 3, 0.2}}, // as many entries as A
		"C":     {{0, 0, 0.2}, {1, 1, 0.6}, {0, 2, 0.9}, {1, 2, 0.7}}, // A's cells, one other value
		"D":     {{0, 0, 1}, {1, 1, 1}, {0, 2, 1}, {1, 2, 1}},         // matches b below exactly
	}
	order := []string{"A", "empty", "B", "A", "C", "empty", "D", "A", "B"}
	mats := make([][]float64, len(order))
	for k, name := range order {
		mats[k] = make([]float64, rows*cols)
		for _, c := range sigs[name] {
			mats[k][c.i*cols+c.j] = c.p
		}
	}
	d := labeledDict(descendingArcs(len(mats)), rows, cols, mats...)
	// b fails output 0 under patterns 0 and 2 and output 1 under
	// patterns 1 and 2: patterns 0 and 1 each have one failing output,
	// and A stores exactly one entry there.
	b := NewBehavior(rows, cols)
	for _, c := range []cell{{0, 0, 1}, {1, 1, 1}, {0, 2, 1}, {1, 2, 1}} {
		b.Set(c.i, c.j, true)
	}
	cd := Compress(d)
	checkClasses(t, &d.sig, len(d.Suspects))
	checkClasses(t, &cd.sig, len(cd.Suspects))
	if d.sig.classes() != len(sigs) || cd.Classes() != len(sigs) {
		t.Fatalf("%d and %d signature classes, want %d", d.sig.classes(), cd.Classes(), len(sigs))
	}
	dense := decompress(cd)
	for _, m := range allMethods {
		got := cd.Diagnose(b, m, 0)
		sameRanking(t, m.String(), got, diagnoseCompressedScalar(cd, b, m))
		sameRanking(t, m.String()+" decompressed", got, diagnoseDenseScalar(dense, b, m))
		sameRanking(t, m.String()+" in memory", d.Diagnose(b, m, 0), diagnoseDenseScalar(d, b, m))
	}
}
