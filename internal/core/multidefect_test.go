package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/rng"
)

// TestSimulateBehaviorMultiMatchesSingle pins SimulateBehavior to the
// one-defect multi form over more than one 64-pattern word, for sizes
// of either sign, and checks its edge inputs: a zero size or an arc
// outside the circuit gives the defect-free die's behavior, and a clock
// 100x the case clock captures every output settled (all-pass).
func TestSimulateBehaviorMultiMatchesSingle(t *testing.T) {
	tb := newBench(t, "mini", 7)
	r := rng.New(4)
	inst := tb.m.SampleInstance(r)
	pats := append(append([]logicsim.PatternPair{}, tb.pats...), randomPairs(r, tb.c, 90)...)
	cell := tb.inj.CellDelay
	multi := func(md defect.MultiDefect, clk float64) *Behavior {
		return SimulateBehaviorMulti(tb.c, inst.Delays, pats, md, clk)
	}
	clean := multi(nil, tb.clk)
	if !clean.AnyFailure() {
		t.Fatal("the die passes every pattern at the case clock, so the huge-clock case checks nothing")
	}
	cases := []struct {
		name      string
		arc       circuit.ArcID
		size, clk float64
		want      *Behavior
	}{
		{"positive size", tb.site, 2 * cell, tb.clk, multi(defect.MultiDefect{{Arc: tb.site, Size: 2 * cell}}, tb.clk)},
		{"negative size", tb.site, -0.5 * cell, tb.clk, multi(defect.MultiDefect{{Arc: tb.site, Size: -0.5 * cell}}, tb.clk)},
		{"zero size", tb.site, 0, tb.clk, clean},
		{"arc below range", -1, 2 * cell, tb.clk, clean},
		{"arc above range", circuit.ArcID(len(tb.c.Arcs)), 2 * cell, tb.clk, clean},
		{"huge clock", tb.site, 2 * cell, 100 * tb.clk, NewBehavior(len(tb.c.Outputs), len(pats))},
	}
	for _, tc := range cases {
		got := SimulateBehavior(tb.c, inst.Delays, pats, tc.arc, tc.size, tc.clk)
		if got.Rows != tc.want.Rows || got.Cols != tc.want.Cols || !slices.Equal(got.bits, tc.want.bits) {
			t.Errorf("%s: behavior\n%v\nwant\n%v", tc.name, got, tc.want)
		}
	}
}

func TestMultiDefectHelpers(t *testing.T) {
	md := defect.MultiDefect{{Arc: 3, Size: 1}, {Arc: 9, Size: 2}}
	if !md.Contains(9) || md.Contains(4) {
		t.Errorf("Contains wrong")
	}
	if md.String() == "" {
		t.Errorf("empty String")
	}
	delays := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	out := md.ApplyTo(delays)
	if out[3] != 2 || out[9] != 3 || out[0] != 1 {
		t.Errorf("ApplyTo wrong: %v", out)
	}
	if delays[3] != 1 {
		t.Errorf("ApplyTo mutated input")
	}
}

func TestSampleMultiDistinct(t *testing.T) {
	tb := newBench(t, "mini", 7)
	r := rng.New(8)
	md := tb.inj.SampleMulti(5, r)
	if len(md) != 5 {
		t.Fatalf("sampled %d", len(md))
	}
	seen := map[circuit.ArcID]bool{}
	for _, d := range md {
		if seen[d.Arc] {
			t.Errorf("duplicate location %d", d.Arc)
		}
		seen[d.Arc] = true
		if d.Size <= 0 {
			t.Errorf("non-positive size")
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("oversized multi-defect accepted")
		}
	}()
	tb.inj.SampleMulti(1<<20, r)
}

func TestDiagnoseIterativePeels(t *testing.T) {
	// Hand-built: two suspects with disjoint signatures, behavior is
	// their union — the iterative loop should name both.
	s1 := NewMatrix(2, 2)
	s1.Set(0, 0, 0.9) // suspect 0 explains (0,0)
	s2 := NewMatrix(2, 2)
	s2.Set(1, 1, 0.9) // suspect 1 explains (1,1)
	d := handDict([]*Matrix{s1, s2})
	b := NewBehavior(2, 2)
	b.Set(0, 0, true)
	b.Set(1, 1, true)

	rounds := d.DiagnoseIterative(b, MethodII, 4, 0.25)
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	got := map[circuit.ArcID]bool{}
	for _, r := range rounds {
		got[r.Candidate.Arc] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("iterative candidates = %v, want both suspects", got)
	}
	if rounds[1].Residual != 0 {
		t.Errorf("residual after both rounds = %d", rounds[1].Residual)
	}
	truth := defect.MultiDefect{{Arc: 0}, {Arc: 1}}
	if MultiHits(rounds, truth) != 2 {
		t.Errorf("MultiHits = %d", MultiHits(rounds, truth))
	}
}

func TestDiagnoseIterativeStopsOnUnexplainable(t *testing.T) {
	// No suspect's signature covers the failing entry: one round,
	// nothing explained, loop stops.
	s := NewMatrix(1, 1) // all-zero signature
	d := handDict([]*Matrix{s})
	b := NewBehavior(1, 1)
	b.Set(0, 0, true)
	rounds := d.DiagnoseIterative(b, AlgRev, 5, 0.25)
	if len(rounds) != 1 || rounds[0].Explained != 0 || rounds[0].Residual != 1 {
		t.Errorf("rounds = %+v", rounds)
	}
}

func TestDiagnoseIterativeCleanBehavior(t *testing.T) {
	s := NewMatrix(1, 1)
	d := handDict([]*Matrix{s})
	if rounds := d.DiagnoseIterative(NewBehavior(1, 1), AlgRev, 5, 0.25); rounds != nil {
		t.Errorf("clean behavior produced rounds: %v", rounds)
	}
}

// End-to-end: two injected defects, single-defect dictionary, the
// iterative diagnosis should recover at least one of them in a clear
// two-site case.
func TestIterativeEndToEnd(t *testing.T) {
	tb := newBench(t, "mini", 7)
	r := rng.New(12)
	inst := tb.m.SampleInstance(r)
	// Defect 1 on the pattern-targeted site; defect 2 random, both big.
	md := defect.MultiDefect{
		{Arc: tb.site, Size: 3 * tb.inj.CellDelay},
		{Arc: tb.inj.SampleLocation(r), Size: 3 * tb.inj.CellDelay},
	}
	b := SimulateBehaviorMulti(tb.c, inst.Delays, tb.pats, md, tb.clk)
	if !b.AnyFailure() {
		t.Skip("defects escaped")
	}
	suspects := suspectArcs(tb.c, tb.pats, b)
	found := false
	for _, a := range suspects {
		if md.Contains(a) {
			found = true
		}
	}
	if !found {
		t.Skip("no injected arc among suspects")
	}
	dict, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	rounds := dict.DiagnoseIterative(b, AlgRev, 3, 0.25)
	if len(rounds) == 0 {
		t.Fatalf("no rounds on a failing behavior")
	}
	for _, round := range rounds {
		if round.Explained < 0 || round.Residual < 0 {
			t.Errorf("negative counters: %+v", round)
		}
	}
}
