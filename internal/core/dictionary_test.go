package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// testBench builds the shared fixture: a small circuit, its timing
// model, a clock at the 90th percentile, and diagnostic patterns for a
// chosen defect site.
type testBench struct {
	c    *circuit.Circuit
	m    *timing.Model
	inj  *defect.Injector
	clk  float64
	site circuit.ArcID
	pats []logicsim.PatternPair
}

func newBench(t *testing.T, circuitName string, seed uint64) *testBench {
	t.Helper()
	c, err := synth.GenerateNamed(circuitName, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	clk := mcClock(t, m, 0.9, 600, seed)
	r := rng.New(rng.Derive(seed, 1))
	// Pick a site that has diagnostic patterns.
	var site circuit.ArcID = -1
	var pats []logicsim.PatternPair
	cands := inj.CandidateArcs()
	for try := 0; try < 40; try++ {
		s := cands[r.IntN(len(cands))]
		tests := atpg.DiagnosticPatterns(c, m.Nominal, s, 6, rng.New(rng.Derive(seed, uint64(2+try))))
		if len(tests) >= 2 {
			site = s
			for _, tc := range tests {
				pats = append(pats, tc.Pair)
			}
			break
		}
	}
	if site < 0 {
		t.Fatal("no diagnosable site found")
	}
	return &testBench{c: c, m: m, inj: inj, clk: clk, site: site, pats: pats}
}

func (tb *testBench) dictConfig(samples int) DictConfig {
	return DictConfig{
		Clk:      tb.clk,
		Samples:  samples,
		Seed:     99,
		SizeDist: tb.inj.AssumedSizeDist(),
	}
}

func TestBuildDictionaryInvariants(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:30]
	suspects = append(suspects, tb.site)
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	nOut, nPat := len(tb.c.Outputs), len(tb.pats)
	n := nOut * nPat
	if d.Rows != nOut || d.Cols != nPat || len(d.M) != n {
		t.Fatalf("shape %dx%d with %d M entries", d.Rows, d.Cols, len(d.M))
	}
	e := make([]float64, n)
	for si := range suspects {
		eRow(d, si, e)
		sumE, sumM := 0.0, 0.0
		for k := range e {
			sumE += e[k]
			sumM += d.M[k]
			if s := d.signature(si, k); s < 0 || s > 1 {
				t.Fatalf("suspect %d: S out of range: %v", si, s)
			}
			if e[k] < 0 || e[k] > 1 {
				t.Fatalf("suspect %d: E out of range: %v", si, e[k])
			}
		}
		// E >= M holds in aggregate (extra delay can only add failures
		// overall); individual entries may dip below M when a hazard
		// realigns past the capture edge — exactly why S_crt clamps.
		if sumE < sumM-1e-9 {
			t.Errorf("suspect %d: aggregate E (%v) below M (%v)", si, sumE, sumM)
		}
	}
}

// TestSignatureClamps checks the one derivation of S_crt from E and
// M: a positive difference is E − M exactly, and a negative or zero
// one is 0. The second suspect's block checks the per-suspect stride.
func TestSignatureClamps(t *testing.T) {
	e := []float64{
		0, 0, 0,
		0.3, 0.1, 0.25, // above, below and equal to M
	}
	d := denseDict([]circuit.ArcID{0, 1}, 1, 3, []float64{0.1, 0.4, 0.25}, e)
	want := []float64{e[3] - d.M[0], 0, 0} // float64 E − M, not the exact constant 0.2
	for k, w := range want {
		if got := d.signature(1, k); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("signature(1, %d) = %v, want %v", k, got, w)
		}
		if got := d.signature(0, k); got != 0 {
			t.Errorf("signature(0, %d) = %v below M, want 0", k, got)
		}
	}
}

func TestBuildDictionaryDeterministicAcrossWorkers(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:12]
	cfg := tb.dictConfig(48)
	cfg.Workers = 1
	a, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 7
	b, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a.M, b.M) != 0 {
		t.Errorf("M depends on worker count")
	}
	if maxAbsDiff(denseE(a), denseE(b)) != 0 {
		t.Errorf("E depends on worker count")
	}
}

// TestBuildDictionaryIncrementalMatchesFull pins the build, with its
// transition skip, observation windows, difference-propagation
// re-simulation and flip-only counting, to the unskipped
// full-simulation reference at one, the default and three workers.
// Every candidate arc is a suspect and the clock is tightened to
// factors of the bench's from 0.4 to 1.0, so that windows cut
// waveforms short and defects change captures (nonzero S) on some
// triples; the tight clocks fail outputs defect-free, so defects that
// make a failing capture pass (E below M) occur too.
func TestBuildDictionaryIncrementalMatchesFull(t *testing.T) {
	tb := newBench(t, "mini", 5)
	suspects := tb.inj.CandidateArcs()
	below := 0
	for _, f := range []float64{0.4, 0.6, 0.8, 1.0} {
		cfg := tb.dictConfig(40)
		cfg.Clk *= f
		b := buildDictionaryReference(tb.m, tb.pats, suspects, cfg)
		bE := denseE(b)
		signals := 0
		for si := range suspects {
			for k, m := range b.M {
				if b.signature(si, k) > 0 {
					signals++
				}
				if bE[si*len(b.M)+k] < m {
					below++
				}
			}
		}
		if signals == 0 {
			t.Fatalf("clk factor %v: no defect changed a capture; the comparison is vacuous", f)
		}
		for _, workers := range []int{0, 1, 3} {
			cfg.Workers = workers
			a, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(a.M, b.M); d != 0 {
				t.Errorf("clk factor %v workers %d: M: build vs reference differ by %v", f, workers, d)
			}
			if d := maxAbsDiff(denseE(a), bE); d != 0 {
				t.Errorf("clk factor %v workers %d: E: build vs reference differ by %v", f, workers, d)
			}
		}
	}
	if below == 0 {
		t.Errorf("no defect made a failing capture pass; the -1 count is unexercised")
	}
}

// TestBuildDictionaryStageLedger checks the MC build's sub-stage
// counters: every (sample, pattern, suspect) triple is either
// simulated or skipped, skips happen exactly where the suspect's
// driver is quiet up to the upper end of its observation window, and
// every stage records time.
func TestBuildDictionaryStageLedger(t *testing.T) {
	tb := newBench(t, "mini", 5)
	suspects := tb.inj.CandidateArcs()[:16]
	cfg := tb.dictConfig(24)
	stages := []*obs.Counter{dictStageSample, dictStageBaseline, dictStageDefect, dictStageAccumulate}
	before := make([]float64, len(stages))
	for i, c := range stages {
		before[i] = c.Value()
	}
	sim0, skip0 := dictDefectSimulated.Value(), dictDefectSkipped.Value()
	if _, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg); err != nil {
		t.Fatal(err)
	}
	sim, skip := dictDefectSimulated.Value()-sim0, dictDefectSkipped.Value()-skip0
	if want := float64(cfg.Samples * len(tb.pats) * len(suspects)); sim+skip != want {
		t.Errorf("simulated %v + skipped %v, want %v triples", sim, skip, want)
	}
	if sim == 0 || skip == 0 {
		t.Errorf("simulated %v, skipped %v; fixture should exercise both", sim, skip)
	}
	for i, c := range stages {
		if c.Value() <= before[i] {
			t.Errorf("stage %d recorded no time", i)
		}
	}
}

func TestBuildDictionaryValidation(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:4]
	if _, err := BuildDictionary(context.Background(), tb.m, nil, suspects, tb.dictConfig(8)); err == nil {
		t.Errorf("no patterns accepted")
	}
	if _, err := BuildDictionary(context.Background(), tb.m, tb.pats, nil, tb.dictConfig(8)); err == nil {
		t.Errorf("no suspects accepted")
	}
	cfg := tb.dictConfig(0)
	if _, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg); err == nil {
		t.Errorf("zero samples accepted")
	}
	cfg = tb.dictConfig(8)
	cfg.SizeDist = nil
	if _, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, cfg); err == nil {
		t.Errorf("nil size dist accepted")
	}
	bad := []logicsim.PatternPair{{V1: logicsim.Vector{true}, V2: logicsim.Vector{false}}}
	if _, err := BuildDictionary(context.Background(), tb.m, bad, suspects, tb.dictConfig(8)); err == nil {
		t.Errorf("wrong-width pattern accepted")
	}
}

func TestSimulateBehaviorAndSuspects(t *testing.T) {
	tb := newBench(t, "mini", 7)
	r := rng.New(11)
	// A big defect on the site: behavior should fail somewhere, and the
	// suspect set should contain the true arc.
	inst := tb.m.SampleInstance(r)
	size := 5 * tb.inj.CellDelay
	b := SimulateBehavior(tb.c, inst.Delays, tb.pats, tb.site, size, tb.clk)
	if !b.AnyFailure() {
		t.Fatalf("huge defect produced no failures")
	}
	suspects := suspectArcs(tb.c, tb.pats, b)
	if len(suspects) == 0 {
		t.Fatalf("no suspects")
	}
	found := false
	for _, a := range suspects {
		if a == tb.site {
			found = true
		}
		if tb.c.Gates[tb.c.Arcs[a].To].Type == circuit.Output {
			t.Errorf("port arc %d among suspects", a)
		}
	}
	if !found {
		t.Errorf("true defect arc pruned from suspects")
	}
}

func TestEndToEndDiagnosisRanksTruthWell(t *testing.T) {
	tb := newBench(t, "mini", 9)
	r := rng.New(21)
	inst := tb.m.SampleInstance(r)
	size := 3 * tb.inj.CellDelay // large, clearly observable defect
	b := SimulateBehavior(tb.c, inst.Delays, tb.pats, tb.site, size, tb.clk)
	if !b.AnyFailure() {
		t.Skip("defect escaped at this clock; site-dependent")
	}
	suspects := suspectArcs(tb.c, tb.pats, b)
	hasTruth := false
	for _, a := range suspects {
		if a == tb.site {
			hasTruth = true
		}
	}
	if !hasTruth {
		t.Skip("true arc pruned; cannot assess ranking")
	}
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	ranked := d.Diagnose(b, AlgRev, 0)
	if len(ranked) != len(suspects) {
		t.Fatalf("ranking size mismatch")
	}
	// With a big defect, diagnostic patterns aimed at the site, and a
	// small circuit, the truth should rank in the top half.
	if !hitWithin(ranked, tb.site, (len(ranked)+1)/2) {
		pos := -1
		for i, rk := range ranked {
			if rk.Arc == tb.site {
				pos = i
			}
		}
		t.Errorf("truth ranked %d of %d by AlgRev", pos+1, len(ranked))
	}
}
