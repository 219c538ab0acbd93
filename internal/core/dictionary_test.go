package core

import (
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
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
	clk := m.SuggestClock(0.9, 600, seed)
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
	d, err := BuildDictionary(tb.m, tb.pats, suspects, tb.dictConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	nOut, nPat := len(tb.c.Outputs), len(tb.pats)
	if d.M.Rows != nOut || d.M.Cols != nPat {
		t.Fatalf("M shape %dx%d", d.M.Rows, d.M.Cols)
	}
	for si := range suspects {
		e, s := d.E[si], d.S[si]
		sumE, sumM := 0.0, 0.0
		for k := range e.Data {
			sumE += e.Data[k]
			sumM += d.M.Data[k]
			if s.Data[k] < 0 || s.Data[k] > 1 {
				t.Fatalf("suspect %d: S out of range: %v", si, s.Data[k])
			}
			if e.Data[k] < 0 || e.Data[k] > 1 {
				t.Fatalf("suspect %d: E out of range: %v", si, e.Data[k])
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

func TestBuildDictionaryDeterministicAcrossWorkers(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:12]
	cfg := tb.dictConfig(48)
	cfg.Workers = 1
	a, err := BuildDictionary(tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 7
	b, err := BuildDictionary(tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.MaxAbsDiff(b.M) != 0 {
		t.Errorf("M depends on worker count")
	}
	for si := range suspects {
		if a.E[si].MaxAbsDiff(b.E[si]) != 0 {
			t.Errorf("E[%d] depends on worker count", si)
		}
	}
}

func TestBuildDictionaryIncrementalMatchesFull(t *testing.T) {
	tb := newBench(t, "mini", 5)
	suspects := tb.inj.CandidateArcs()[:16]
	cfgInc := tb.dictConfig(40)
	cfgFull := cfgInc
	cfgFull.FullResim = true
	a, err := BuildDictionary(tb.m, tb.pats, suspects, cfgInc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDictionary(tb.m, tb.pats, suspects, cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	for si := range suspects {
		if d := a.E[si].MaxAbsDiff(b.E[si]); d != 0 {
			t.Errorf("suspect %d: incremental vs full differ by %v", si, d)
		}
	}
}

func TestBuildDictionaryValidation(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:4]
	if _, err := BuildDictionary(tb.m, nil, suspects, tb.dictConfig(8)); err == nil {
		t.Errorf("no patterns accepted")
	}
	if _, err := BuildDictionary(tb.m, tb.pats, nil, tb.dictConfig(8)); err == nil {
		t.Errorf("no suspects accepted")
	}
	cfg := tb.dictConfig(0)
	if _, err := BuildDictionary(tb.m, tb.pats, suspects, cfg); err == nil {
		t.Errorf("zero samples accepted")
	}
	cfg = tb.dictConfig(8)
	cfg.SizeDist = nil
	if _, err := BuildDictionary(tb.m, tb.pats, suspects, cfg); err == nil {
		t.Errorf("nil size dist accepted")
	}
	bad := []logicsim.PatternPair{{V1: logicsim.Vector{true}, V2: logicsim.Vector{false}}}
	if _, err := BuildDictionary(tb.m, bad, suspects, tb.dictConfig(8)); err == nil {
		t.Errorf("wrong-width pattern accepted")
	}
}

func TestMergeDictionaries(t *testing.T) {
	tb := newBench(t, "mini", 3)
	if len(tb.pats) < 2 {
		t.Skip("need at least two patterns to split")
	}
	suspects := tb.inj.CandidateArcs()[:15]
	cfg := tb.dictConfig(48)
	full, err := BuildDictionary(tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildDictionary(tb.m, tb.pats[:1], suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDictionary(tb.m, tb.pats[1:], suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Patterns) != len(tb.pats) {
		t.Fatalf("merged patterns = %d", len(merged.Patterns))
	}
	// Same instance samples (same seed) make the merged matrices equal
	// the full build — except for per-sample defect sizes, which are
	// drawn per suspect ONCE per sample regardless of patterns, so the
	// M matrices match exactly and the E matrices match exactly too.
	if d := merged.M.MaxAbsDiff(full.M); d != 0 {
		t.Errorf("merged M differs from full by %v", d)
	}
	for i := range suspects {
		if d := merged.E[i].MaxAbsDiff(full.E[i]); d != 0 {
			t.Errorf("suspect %d merged E differs by %v", i, d)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:5]
	cfg := tb.dictConfig(16)
	a, err := BuildDictionary(tb.m, tb.pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDictionary(tb.m, tb.pats, suspects[:4], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); err == nil {
		t.Errorf("suspect mismatch accepted")
	}
	cfg2 := cfg
	cfg2.Clk = cfg.Clk + 1
	c2, err := BuildDictionary(tb.m, tb.pats, suspects, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, c2); err == nil {
		t.Errorf("clk mismatch accepted")
	}
}

func TestMergeErrorsNameDictionaryIDs(t *testing.T) {
	tb := newBench(t, "mini", 3)
	cands := tb.inj.CandidateArcs()
	cfg := tb.dictConfig(16)
	a, err := BuildDictionary(tb.m, tb.pats, cands[:5], cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.ID = "shard-a"

	// Clk mismatch: the error names both shards and both clks.
	cfg2 := cfg
	cfg2.Clk = cfg.Clk + 1
	b, err := BuildDictionary(tb.m, tb.pats, cands[:5], cfg2)
	if err != nil {
		t.Fatal(err)
	}
	b.ID = "shard-b"
	_, err = Merge(a, b)
	if err == nil {
		t.Fatal("clk mismatch accepted")
	}
	for _, want := range []string{"shard-a", "shard-b", "clk"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("clk-mismatch error %q does not mention %q", err, want)
		}
	}

	// Disjoint suspect sets of equal size: the error names the shards
	// and the first diverging arc pair.
	c2, err := BuildDictionary(tb.m, tb.pats, cands[5:10], cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.ID = "shard-c"
	_, err = Merge(a, c2)
	if err == nil {
		t.Fatal("disjoint-suspect merge accepted")
	}
	for _, want := range []string{"shard-a", "shard-c", "suspects"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("disjoint-suspect error %q does not mention %q", err, want)
		}
	}

	// Unnamed dictionaries get a placeholder, not an empty string.
	c2.ID = ""
	_, err = Merge(a, c2)
	if err == nil || !strings.Contains(err.Error(), "<unnamed>") {
		t.Errorf("unnamed dictionary error = %v, want <unnamed> placeholder", err)
	}

	// A successful merge keeps the left shard's ID.
	d2, err := BuildDictionary(tb.m, tb.pats, cands[:5], cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(a, d2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.ID != "shard-a" {
		t.Errorf("merged ID = %q, want shard-a", merged.ID)
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
	suspects := SuspectArcs(tb.c, tb.pats, b)
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
	suspects := SuspectArcs(tb.c, tb.pats, b)
	hasTruth := false
	for _, a := range suspects {
		if a == tb.site {
			hasTruth = true
		}
	}
	if !hasTruth {
		t.Skip("true arc pruned; cannot assess ranking")
	}
	d, err := BuildDictionary(tb.m, tb.pats, suspects, tb.dictConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	ranked := d.Diagnose(b, AlgRev)
	if len(ranked) != len(suspects) {
		t.Fatalf("ranking size mismatch")
	}
	// With a big defect, diagnostic patterns aimed at the site, and a
	// small circuit, the truth should rank in the top half.
	if !HitWithin(ranked, tb.site, (len(ranked)+1)/2) {
		pos := -1
		for i, rk := range ranked {
			if rk.Arc == tb.site {
				pos = i
			}
		}
		t.Errorf("truth ranked %d of %d by AlgRev", pos+1, len(ranked))
	}
}
