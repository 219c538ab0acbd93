package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

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
		Clk: m.SuggestClock(0.95, 200, 7), Samples: 64, Seed: 17,
		Workers: 3, SizeDist: inj.AssumedSizeDist(),
	}
	return m, pats, suspects, cfg
}

// hashDict folds every float64 bit of M, E and S into one SHA-256.
func hashDict(d *Dictionary) string {
	h := sha256.New()
	put := func(mat *Matrix) {
		var buf [8]byte
		for _, v := range mat.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(d.M)
	for i := range d.E {
		put(d.E[i])
		put(d.S[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDictionaryGolden pins the built dictionary to the pre-change
// golden hash, byte for byte.
func TestDictionaryGolden(t *testing.T) {
	m, pats, suspects, cfg := goldenDictSetup(t)
	d, err := BuildDictionary(m, pats, suspects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashDict(d); got != goldenDictSHA256 {
		t.Fatalf("dictionary drifted from the pre-change golden:\n got  %s\n want %s", got, goldenDictSHA256)
	}
}

// TestDictionaryGoldenInvariances asserts that neither the worker
// count nor the incremental/full re-simulation switch changes a bit:
// failure counts are integers, integer sums in float64 are exact, and
// the cone-limited re-simulation is an exact optimization.
func TestDictionaryGoldenInvariances(t *testing.T) {
	m, pats, suspects, cfg := goldenDictSetup(t)
	for _, mod := range []struct {
		name string
		mut  func(*DictConfig)
	}{
		{"workers=1", func(c *DictConfig) { c.Workers = 1 }},
		{"workers=7", func(c *DictConfig) { c.Workers = 7 }},
		{"full-resim", func(c *DictConfig) { c.FullResim = true }},
	} {
		t.Run(mod.name, func(t *testing.T) {
			c := cfg
			mod.mut(&c)
			d, err := BuildDictionary(m, pats, suspects, c)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashDict(d); got != goldenDictSHA256 {
				t.Fatalf("dictionary depends on %s:\n got  %s\n want %s", mod.name, got, goldenDictSHA256)
			}
		})
	}
}
