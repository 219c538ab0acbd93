package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// randomPairs builds n random pattern pairs for c — broad stimulus in
// the style of a production test set, as opposed to the targeted
// diagnostic patterns newBench picks.
func randomPairs(r *rand.Rand, c *circuit.Circuit, n int) []logicsim.PatternPair {
	pairs := make([]logicsim.PatternPair, n)
	for i := range pairs {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for k := range v1 {
			v1[k] = r.IntN(2) == 1
			v2[k] = r.IntN(2) == 1
		}
		pairs[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	return pairs
}

// randomBehavior fills a fresh Behavior with p-biased random bits.
func randomBehavior(r *rand.Rand, rows, cols int, p float64) *Behavior {
	b := NewBehavior(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.Set(i, j, r.Float64() < p)
		}
	}
	return b
}

func sameArcIDs(a, b []circuit.ArcID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSuspectArcsTieredMatchesScalar pins the word-parallel tiered
// pruner against the retained scalar oracle: simulated behaviors from a
// real defect, random glitch-style behaviors (dense and sparse), the
// all-pass behavior, and multi-word pattern sets (>64 patterns).
func TestSuspectArcsTieredMatchesScalar(t *testing.T) {
	for _, profile := range []string{"mini", "small"} {
		for _, nPats := range []int{5, 64, 130} {
			c, err := synth.GenerateNamed(profile, 17)
			if err != nil {
				t.Fatal(err)
			}
			m := timing.NewModel(c, timing.DefaultParams())
			clk := mcClock(t, m, 0.9, 300, 17)
			r := rng.New(rng.DeriveN(29, uint64(len(profile)), uint64(nPats)))
			pats := randomPairs(r, c, nPats)
			inst := m.SampleInstance(r)
			site := circuit.ArcID(r.IntN(len(c.Arcs)))
			behaviors := map[string]*Behavior{
				"simulated": SimulateBehavior(c, inst.Delays, pats, site, 5*m.MeanCellDelay(), clk),
				"all-pass":  NewBehavior(len(c.Outputs), nPats),
				"dense":     randomBehavior(r, len(c.Outputs), nPats, 0.4),
				"sparse":    randomBehavior(r, len(c.Outputs), nPats, 0.02),
			}
			for name, b := range behaviors {
				gs, gr := SuspectArcsTiered(c, pats, b)
				ws, wr := suspectArcsTieredScalar(c, pats, b)
				if !sameArcIDs(gs, ws) {
					t.Errorf("%s/%d/%s: strict tier differs: words %v, scalar %v", profile, nPats, name, gs, ws)
				}
				if !sameArcIDs(gr, wr) {
					t.Errorf("%s/%d/%s: relaxed tier differs: words %v, scalar %v", profile, nPats, name, gr, wr)
				}
			}
		}
	}
}

// TestBehaviorBitPacking pins the packed representation: padding bits
// beyond Cols stay zero, Reset reuses storage and clears it, Clone is
// independent, and the popcount aggregates match naive recomputation.
func TestBehaviorBitPacking(t *testing.T) {
	r := rng.New(77)
	b := randomBehavior(r, 3, 65, 0.5)
	if b.WordsPerRow() != 2 {
		t.Fatalf("WordsPerRow = %d, want 2 for 65 columns", b.WordsPerRow())
	}
	for i := 0; i < b.Rows; i++ {
		if pad := b.Word(i, 1) &^ 1; pad != 0 {
			t.Errorf("row %d: padding bits set (%#x)", i, pad)
		}
	}
	// Naive aggregates from At.
	count := 0
	var failCols []int
	for j := 0; j < b.Cols; j++ {
		fails := false
		for i := 0; i < b.Rows; i++ {
			if b.At(i, j) {
				count++
				fails = true
			}
		}
		if fails {
			failCols = append(failCols, j)
		}
	}
	if got := b.FailCount(); got != count {
		t.Errorf("FailCount = %d, want %d", got, count)
	}
	if got := b.AnyFailure(); got != (count > 0) {
		t.Errorf("AnyFailure = %v, want %v", got, count > 0)
	}
	gotCols := b.FailingPatterns()
	if len(gotCols) != len(failCols) {
		t.Fatalf("FailingPatterns = %v, want %v", gotCols, failCols)
	}
	for k := range gotCols {
		if gotCols[k] != failCols[k] {
			t.Fatalf("FailingPatterns = %v, want %v", gotCols, failCols)
		}
	}

	cl := b.Clone()
	cl.Set(0, 0, !b.At(0, 0))
	if cl.At(0, 0) == b.At(0, 0) {
		t.Error("Clone shares storage with the original")
	}

	b.Reset(2, 10)
	if b.Rows != 2 || b.Cols != 10 || b.WordsPerRow() != 1 {
		t.Fatalf("Reset shape wrong: %dx%d words %d", b.Rows, b.Cols, b.WordsPerRow())
	}
	if b.AnyFailure() {
		t.Error("Reset left stale bits")
	}
	b.Set(1, 9, true)
	if !b.At(1, 9) || b.FailCount() != 1 {
		t.Error("Set/At after Reset broken")
	}
}

// FuzzSuspectWords fuzzes the word-parallel tiered pruner against the
// scalar oracle with fuzzer-chosen circuit seed, pattern count, and
// behavior density.
func FuzzSuspectWords(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint64(3))
	f.Add(uint64(9), uint8(64), uint64(0))
	f.Add(uint64(4), uint8(129), uint64(^uint64(0)))
	f.Fuzz(func(t *testing.T, seed uint64, nPats uint8, glitch uint64) {
		c, err := synth.GenerateNamed("mini", seed%8)
		if err != nil {
			t.Fatal(err)
		}
		n := int(nPats)%150 + 1
		r := rng.New(rng.Derive(seed, glitch))
		pats := randomPairs(r, c, n)
		b := randomBehavior(r, len(c.Outputs), n, float64(glitch%101)/100)
		gs, gr := SuspectArcsTiered(c, pats, b)
		ws, wr := suspectArcsTieredScalar(c, pats, b)
		if !sameArcIDs(gs, ws) || !sameArcIDs(gr, wr) {
			t.Fatalf("tiers diverge: words (%v, %v), scalar (%v, %v)", gs, gr, ws, wr)
		}
	})
}
