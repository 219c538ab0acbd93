package core

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// randomDict builds a dictionary of nSus suspects over nOut×nPat
// random signature matrices (E random over M = 0, so S = E), plus a
// random behavior matrix.
func randomDict(seed uint64, nSus, nOut, nPat int) (*Dictionary, *Behavior) {
	e, b := randomE(seed, nSus, nOut, nPat)
	return randomDictOf(e, nSus, nOut, nPat), b
}

// randomE returns randomDict's dense E block and behavior, for tests
// that edit E before building the dictionary with randomDictOf.
func randomE(seed uint64, nSus, nOut, nPat int) ([]float64, *Behavior) {
	r := rng.New(seed)
	e := make([]float64, nSus*nOut*nPat)
	for k := range e {
		e[k] = r.Float64()
	}
	b := NewBehavior(nOut, nPat)
	for i := 0; i < nOut; i++ {
		for j := 0; j < nPat; j++ {
			b.Set(i, j, r.IntN(2) == 1)
		}
	}
	return e, b
}

// randomDictOf builds randomDict's dictionary over the dense E block e.
func randomDictOf(e []float64, nSus, nOut, nPat int) *Dictionary {
	suspects := make([]circuit.ArcID, nSus)
	for i := range suspects {
		suspects[i] = circuit.ArcID(i * 3) // arbitrary distinct IDs
	}
	return denseDict(suspects, nOut, nPat, make([]float64, nOut*nPat), e)
}

// Property: per-pattern consistencies are probabilities, and method
// scores stay within their theoretical ranges.
func TestScoreRangesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nSus, nOut, nPat := 1+r.IntN(6), 1+r.IntN(5), 1+r.IntN(6)
		d, b := randomDict(seed, nSus, nOut, nPat)
		for si := range d.Suspects {
			phi := d.PatternConsistency(si, b)
			for _, p := range phi {
				if p < 0 || p > 1 {
					return false
				}
			}
			for _, m := range []Method{MethodI, MethodII, MethodIII} {
				if s := m.Score(phi); s < 0 || s > 1 {
					return false
				}
			}
			if s := AlgRev.Score(phi); s < 0 || s > float64(nPat) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Diagnose returns a permutation of the suspects, sorted by
// score in the method's direction.
func TestDiagnosePermutationProperty(t *testing.T) {
	f := func(seed uint64, mi uint8) bool {
		r := rng.New(seed)
		nSus, nOut, nPat := 1+r.IntN(8), 1+r.IntN(4), 1+r.IntN(5)
		d, b := randomDict(seed, nSus, nOut, nPat)
		m := Methods[int(mi)%len(Methods)]
		ranked := d.Diagnose(b, m, 0)
		if len(ranked) != nSus {
			return false
		}
		seen := map[circuit.ArcID]bool{}
		for i, rk := range ranked {
			if seen[rk.Arc] {
				return false
			}
			seen[rk.Arc] = true
			if i == 0 {
				continue
			}
			prev := ranked[i-1].Score
			if m.lowerIsBetter() {
				if rk.Score < prev {
					return false
				}
			} else if rk.Score > prev {
				return false
			}
		}
		for _, a := range d.Suspects {
			if !seen[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a suspect whose signature explains the behavior exactly
// (s = 1 on failing entries, 0 elsewhere) is ranked first by every
// method against any competitors.
func TestPerfectSignatureWinsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nOut, nPat := 1+r.IntN(4), 1+r.IntN(5)
		e, b := randomE(seed, 3, nOut, nPat)
		// Replace suspect 0's signature with the perfect one.
		perfect := e[:nOut*nPat]
		clear(perfect)
		for i := 0; i < nOut; i++ {
			for j := 0; j < nPat; j++ {
				if b.At(i, j) {
					perfect[i*nPat+j] = 1
				}
			}
		}
		d := randomDictOf(e, 3, nOut, nPat)
		for _, m := range Methods {
			ranked := d.Diagnose(b, m, 0)
			if ranked[0].Arc != d.Suspects[0] {
				// Ties are possible if a random competitor is also
				// perfect (probability ~0 with continuous uniforms).
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: flipping a behavior entry never increases the perfect
// signature's AlgRev advantage... more simply: the AlgRev score of the
// perfect signature is exactly 0, the theoretical minimum.
func TestPerfectSignatureZeroError(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nOut, nPat := 1+r.IntN(4), 1+r.IntN(5)
		e, b := randomE(seed, 1, nOut, nPat)
		perfect := e[:nOut*nPat]
		clear(perfect)
		for i := 0; i < nOut; i++ {
			for j := 0; j < nPat; j++ {
				if b.At(i, j) {
					perfect[i*nPat+j] = 1
				}
			}
		}
		phi := randomDictOf(e, 1, nOut, nPat).PatternConsistency(0, b)
		return AlgRev.Score(phi) == 0 && MethodIII.Score(phi) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPatternConsistencyShapeMismatchPanics(t *testing.T) {
	d, _ := randomDict(1, 1, 2, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("shape mismatch not caught")
		}
	}()
	d.PatternConsistency(0, NewBehavior(3, 3))
}

func TestSuspectTiersDisjointAndSorted(t *testing.T) {
	tb := newBench(t, "mini", 7)
	r := rng.New(11)
	inst := tb.m.SampleInstance(r)
	b := SimulateBehavior(tb.c, inst.Delays, tb.pats, tb.site, 5*tb.inj.CellDelay, tb.clk)
	if !b.AnyFailure() {
		t.Skip("defect escaped; site-dependent")
	}
	strict, relaxed := SuspectArcsTiered(tb.c, tb.pats, b)
	inStrict := map[circuit.ArcID]bool{}
	for i, a := range strict {
		inStrict[a] = true
		if i > 0 && strict[i-1] >= a {
			t.Errorf("strict tier not sorted")
		}
	}
	for i, a := range relaxed {
		if inStrict[a] {
			t.Errorf("arc %d in both tiers", a)
		}
		if i > 0 && relaxed[i-1] >= a {
			t.Errorf("relaxed tier not sorted")
		}
	}
	union := suspectArcs(tb.c, tb.pats, b)
	if len(union) != len(strict)+len(relaxed) {
		t.Errorf("union size %d != %d + %d", len(union), len(strict), len(relaxed))
	}
	// All-pass behavior yields no suspects.
	s2, r2 := SuspectArcsTiered(tb.c, tb.pats, NewBehavior(len(tb.c.Outputs), len(tb.pats)))
	if len(s2) != 0 || len(r2) != 0 {
		t.Errorf("all-pass behavior produced suspects")
	}
}
