package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/rng"
)

func TestErrorFuncRegistry(t *testing.T) {
	if len(Extensions) != 3 {
		t.Fatalf("extensions = %v", Extensions)
	}
	for _, m := range Extensions {
		if !m.lowerIsBetter() {
			t.Errorf("%v ranks higher-is-better; an error function is minimized", m)
		}
	}
	phi := []float64{0.5, 0.9}
	if got := L1.Score(phi); !almostEq2(got, 0.6) {
		t.Errorf("L1 = %v", got)
	}
	if got := Chebyshev.Score(phi); !almostEq2(got, 0.5) {
		t.Errorf("chebyshev = %v", got)
	}
	want := -(math.Log(0.5) + math.Log(0.9))
	if got := LogLik.Score(phi); !almostEq2(got, want) {
		t.Errorf("loglik = %v, want %v", got, want)
	}
}

func almostEq2(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLogLikRepairsMethodIIICollapse(t *testing.T) {
	// Two candidates: A matches 9 of 10 patterns perfectly but zeroes
	// one; B is mediocre (φ = 0.3) everywhere. Method III zeroes both
	// A and... A exactly; loglik prefers A if the floor penalty is
	// outweighed — with ε = 1e-6 one miss costs ~13.8 nats vs B's
	// 10·1.2 = 12 nats, so B wins here; with a less extreme miss
	// (φ = 0.01) A wins. The point: loglik *orders* such candidates
	// while Method III cannot distinguish any candidate with one zero.
	phiA := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 0.01}
	phiB := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	if MethodIII.Score(phiA) >= MethodIII.Score(phiB) {
		t.Skip("phiA product is not smaller; adjust example")
	}
	ll := LogLik.Score
	if ll(phiA) >= ll(phiB) {
		t.Errorf("loglik should prefer the near-perfect candidate: %v vs %v", ll(phiA), ll(phiB))
	}
	// And candidates with a hard zero remain comparable.
	phiC := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 0}
	phiD := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if ll(phiC) >= ll(phiD) {
		t.Errorf("loglik cannot order hard-zero candidates: %v vs %v", ll(phiC), ll(phiD))
	}
	if MethodIII.Score(phiC) != 0 || MethodIII.Score(phiD) != 0 {
		t.Errorf("Method III should zero both")
	}
}

func TestAutoKPicksLargestGap(t *testing.T) {
	ranked := []Ranked{
		{Arc: 1, Score: 0.10}, // gap 0.05
		{Arc: 2, Score: 0.15}, // gap 0.60  <- cut here: K = 2
		{Arc: 3, Score: 0.75}, // gap 0.05
		{Arc: 4, Score: 0.80},
	}
	k, gap := AutoK(ranked, AlgRev, 3)
	if k != 2 || !almostEq2(gap, 0.60) {
		t.Errorf("AutoK = %d, %v; want 2, 0.60", k, gap)
	}
	// Higher-is-better direction.
	rankedHi := []Ranked{
		{Arc: 1, Score: 0.9},
		{Arc: 2, Score: 0.2}, // gap 0.7 at K=1
		{Arc: 3, Score: 0.1},
	}
	k, gap = AutoK(rankedHi, MethodII, 2)
	if k != 1 || !almostEq2(gap, 0.7) {
		t.Errorf("AutoK hi = %d, %v; want 1, 0.7", k, gap)
	}
}

func TestAutoKEdgeCases(t *testing.T) {
	if k, _ := AutoK(nil, AlgRev, 5); k != 0 {
		t.Errorf("empty ranking K = %d", k)
	}
	one := []Ranked{{Arc: 1, Score: 0.5}}
	if k, _ := AutoK(one, AlgRev, 5); k != 1 {
		t.Errorf("single candidate K = %d", k)
	}
	if k, _ := AutoK(one, AlgRev, 0); k != 1 {
		t.Errorf("maxK=0 K = %d", k)
	}
}

func TestAutoKAllEqualScores(t *testing.T) {
	// A flat score curve has no gap to cut at: K collapses to 1 with a
	// zero gap (the no-confidence signal the service forwards).
	flat := make([]Ranked, 6)
	for i := range flat {
		flat[i] = Ranked{Arc: circuit.ArcID(i + 1), Score: 0.4}
	}
	for _, m := range Methods {
		k, gap := AutoK(flat, m, 5)
		if k != 1 || !almostEq2(gap, 0) {
			t.Errorf("%v flat scores: K = %d gap = %v, want 1, 0", m, k, gap)
		}
	}
}

func TestAutoKCapsAtRankedLength(t *testing.T) {
	ranked := []Ranked{
		{Arc: 1, Score: 0.1},
		{Arc: 2, Score: 0.2},
		{Arc: 3, Score: 0.9}, // largest gap precedes arc 3
		{Arc: 4, Score: 0.95},
	}
	// maxK far beyond the ranking length behaves exactly like the
	// largest meaningful cut (len-1) and never exceeds it.
	kBig, gapBig := AutoK(ranked, AlgRev, 99)
	kCap, gapCap := AutoK(ranked, AlgRev, len(ranked)-1)
	if kBig != kCap || !almostEq2(gapBig, gapCap) {
		t.Errorf("maxK=99 gave %d/%v, maxK=%d gave %d/%v", kBig, gapBig, len(ranked)-1, kCap, gapCap)
	}
	if kBig < 1 || kBig > len(ranked) {
		t.Errorf("K = %d outside [1, %d]", kBig, len(ranked))
	}
	if kBig != 2 {
		t.Errorf("K = %d, want the cut before the 0.7 gap (2)", kBig)
	}
}

// Property: AutoK stays within [1, min(maxK, len-1)] and the reported
// gap is nonnegative for sorted rankings.
func TestAutoKRangeProperty(t *testing.T) {
	f := func(seed uint64, mi uint8) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(20)
		m := Methods[int(mi)%len(Methods)]
		d, b := randomDict(seed, n, 1+r.IntN(3), 1+r.IntN(4))
		ranked := d.Diagnose(b, m)
		maxK := 1 + r.IntN(n)
		k, gap := AutoK(ranked, m, maxK)
		limit := maxK
		if limit > len(ranked)-1 {
			limit = len(ranked) - 1
		}
		return k >= 1 && k <= limit && gap >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
