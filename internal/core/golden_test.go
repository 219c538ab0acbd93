package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// goldenDictSHA256 is the SHA-256 of the dictionary built by
// goldenDictConfig, captured on the scalar pre-blocked-kernel
// implementation (PR 5). The blocked, allocation-free kernels must
// reproduce it bit for bit: instance sampling keeps the exact
// rng.NewDerived(seed, idx) per-sample derivation and the accumulators
// sum integer failure counts (exact in float64), so no restructuring
// of the build loop may change a single output bit.
const goldenDictSHA256 = "17919b5667637402588741ded0074a904dd4b008dd7cda7bf5879200591c9d59"

// mcClock is the Monte-Carlo q-quantile clock pick: the circuit-delay
// quantile of an STA run on the 0x51a9 sub-stream of seed.
func mcClock(t testing.TB, m *timing.Model, q float64, nSamples int, seed uint64) float64 {
	t.Helper()
	res, err := timing.NewMC(m).STA(context.Background(), nSamples, rng.Derive(seed, 0x51a9), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.CircuitDelay.Quantile(q)
}

// goldenDictSetup builds the fixed configuration behind the golden
// hash: the "small" profile, 6 random patterns, 10 spread suspects.
func goldenDictSetup(t *testing.T) (*timing.Model, []logicsim.PatternPair, []circuit.ArcID, DictConfig) {
	t.Helper()
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	tp := timing.DefaultParams()
	tp.SigmaGlobal, tp.SigmaLocal = 0.02, 0.08
	m := timing.NewModel(c, tp)
	r := rng.New(41)
	pats := make([]logicsim.PatternPair, 6)
	for i := range pats {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for k := range v1 {
			v1[k] = r.Uint64()&1 == 1
			v2[k] = r.Uint64()&1 == 1
		}
		pats[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	suspects := make([]circuit.ArcID, 10)
	for i := range suspects {
		suspects[i] = circuit.ArcID(i * len(c.Arcs) / 10)
	}
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	cfg := DictConfig{
		Clk: mcClock(t, m, 0.95, 200, 7), Samples: 64, Seed: 17,
		Workers: 3, SizeDist: inj.AssumedSizeDist(),
	}
	return m, pats, suspects, cfg
}

// hashDict folds every float64 bit of M, then per suspect of E (dense,
// expanded from its stored cells) and the derived S, into one SHA-256.
func hashDict(d *Dictionary) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	n := len(d.M)
	for _, v := range d.M {
		put(v)
	}
	e := make([]float64, n)
	for si := range d.Suspects {
		eRow(d, si, e)
		for _, v := range e {
			put(v)
		}
		for k, v := range e {
			s := v - d.M[k]
			if s < 0 {
				s = 0
			}
			put(s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDictionaryGolden pins the built dictionary to the pre-change
// golden hash, byte for byte.
func TestDictionaryGolden(t *testing.T) {
	m, pats, suspects, cfg := goldenDictSetup(t)
	d, err := BuildDictionary(context.Background(), m, pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashDict(d); got != goldenDictSHA256 {
		t.Fatalf("dictionary drifted from the pre-change golden:\n got  %s\n want %s", got, goldenDictSHA256)
	}
}

// TestDictionaryGoldenInvariances asserts that neither the worker
// count nor the build's shortcuts change a bit: the unskipped
// reference build, which re-simulates every (sample, pattern, suspect)
// triple in full, must hash to the same golden. Failure counts are
// integers, integer sums in float64 are exact, and both the transition
// skip and difference propagation are exact optimizations.
func TestDictionaryGoldenInvariances(t *testing.T) {
	m, pats, suspects, cfg := goldenDictSetup(t)
	withWorkers := func(n int) func() (*Dictionary, error) {
		return func() (*Dictionary, error) {
			c := cfg
			c.Workers = n
			return BuildDictionary(context.Background(), m, pats, suspects, c)
		}
	}
	for _, mod := range []struct {
		name  string
		build func() (*Dictionary, error)
	}{
		{"workers=1", withWorkers(1)},
		{"workers=7", withWorkers(7)},
		{"reference", func() (*Dictionary, error) {
			return buildDictionaryReference(m, pats, suspects, cfg), nil
		}},
	} {
		t.Run(mod.name, func(t *testing.T) {
			d, err := mod.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := hashDict(d); got != goldenDictSHA256 {
				t.Fatalf("dictionary depends on %s:\n got  %s\n want %s", mod.name, got, goldenDictSHA256)
			}
		})
	}
}

// goldenSignalDictSHA256 is the SHA-256 of the dictionary built by
// goldenSignalDictSetup, captured on the level-ordered waveform kernel
// without observation windows; every later optimization of the build must
// reproduce it bit for bit. Unlike goldenDictSHA256 it pins a
// dictionary with signal: diagnostic patterns for one site and a tight
// clk make defects change captures, so M, E and S hold nonzero entries.
const goldenSignalDictSHA256 = "18d3f58ceb5be2d9bed70c8725c39864e6b76cc80f6be773d58d3e54f7b6af22"

// goldenSignalMinNonzeroS is the least number of nonzero S entries the
// signal golden must hold; the golden dictionary has 55.
const goldenSignalMinNonzeroS = 40

// goldenSignalDictSetup is the signal-bearing golden configuration:
// the "small" profile, atpg.DiagnosticPatterns patterns for the first
// candidate site that has at least four, every candidate arc as a
// suspect, and clk at the largest median timing length of the tested
// paths, the way the evaluation pipeline picks it but at a lower
// quantile.
func goldenSignalDictSetup(t *testing.T) (*timing.Model, []logicsim.PatternPair, []circuit.ArcID, DictConfig) {
	t.Helper()
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	cands := inj.CandidateArcs()
	var tests []atpg.PathTestResult
	for i, site := range cands {
		tests = atpg.DiagnosticPatterns(c, m.Nominal, site, 8, rng.New(rng.Derive(43, uint64(i))))
		if len(tests) >= 4 {
			break
		}
	}
	if len(tests) < 4 {
		t.Fatal("no site with diagnostic patterns")
	}
	pats := make([]logicsim.PatternPair, len(tests))
	paths := make([][]circuit.ArcID, len(tests))
	for i, tc := range tests {
		pats[i] = tc.Pair
		paths[i] = tc.Path.Arcs
	}
	tls, err := timing.NewMC(m).TimingLengths(context.Background(), paths, 200, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := 0.0
	for _, tl := range tls {
		clk = max(clk, tl.Quantile(0.5))
	}
	cfg := DictConfig{
		Clk: clk, Samples: 48, Seed: 23,
		Workers: 3, SizeDist: inj.AssumedSizeDist(),
	}
	return m, pats, cands, cfg
}

// TestDictionaryGoldenSignal pins the signal-bearing dictionary, from
// both the build and the unskipped reference, to its golden hash, and
// checks that it has signal.
func TestDictionaryGoldenSignal(t *testing.T) {
	m, pats, suspects, cfg := goldenSignalDictSetup(t)
	d, err := BuildDictionary(context.Background(), m, pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for si := range d.Suspects {
		for k := range d.M {
			if d.signature(si, k) != 0 {
				nonzero++
			}
		}
	}
	if nonzero < goldenSignalMinNonzeroS {
		t.Fatalf("%d nonzero S entries, want at least %d", nonzero, goldenSignalMinNonzeroS)
	}
	ref := buildDictionaryReference(m, pats, suspects, cfg)
	for _, b := range []struct {
		name string
		d    *Dictionary
	}{{"build", d}, {"reference", ref}} {
		if got := hashDict(b.d); got != goldenSignalDictSHA256 {
			t.Errorf("%s drifted from the signal golden:\n got  %s\n want %s", b.name, got, goldenSignalDictSHA256)
		}
	}
}
