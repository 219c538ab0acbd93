package atpg

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func mustParse(t *testing.T, src, name string) *circuit.Circuit {
	t.Helper()
	c, err := benchfmt.ParseString(src, name, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPathTestAndGate(t *testing.T) {
	c := mustParse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n", "and2")
	m := timing.NewModel(c, timing.DefaultParams())
	o, _ := c.GateByName("o")
	p := path.KLongestThrough(c, m.Nominal, o.InArcs[0], 1)[0]
	gen := NewGenerator(c)
	r := rng.New(1)

	for _, rising := range []bool{true, false} {
		for _, robust := range []bool{true, false} {
			pair, err := gen.PathTest(p, rising, robust, r)
			if err != nil {
				t.Fatalf("rising=%v robust=%v: %v", rising, robust, err)
			}
			// Launch input must transition in the requested direction.
			if pair.V1[0] == pair.V2[0] || pair.V2[0] != rising {
				t.Errorf("launch polarity wrong: %v", pair)
			}
			// Side input b must be 1 in V2 (non-controlling for AND).
			if !pair.V2[1] {
				t.Errorf("side input controlling in V2: %v", pair)
			}
			if robust && !pair.V1[1] {
				t.Errorf("robust side input not steady: %v", pair)
			}
			if err := CheckPathTest(c, p, pair, robust); err != nil {
				t.Errorf("checker rejects generated test: %v", err)
			}
		}
	}
}

func TestPathTestThroughChainOfGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o)
g1 = NAND(a, b)
g2 = NOR(g1, c)
g3 = XOR(g2, d)
o = NOT(g3)
`
	c := mustParse(t, src, "mixedchain")
	m := timing.NewModel(c, timing.DefaultParams())
	g1, _ := c.GateByName("g1")
	// Longest path through arc a->g1 traverses all four gates.
	p := path.KLongestThrough(c, m.Nominal, g1.InArcs[0], 1)[0]
	gen := NewGenerator(c)
	r := rng.New(5)
	pair, err := gen.PathTest(p, true, true, r)
	if err != nil {
		t.Fatalf("robust generation failed: %v", err)
	}
	if err := CheckPathTest(c, p, pair, true); err != nil {
		t.Errorf("checker: %v", err)
	}
	// The transition must reach the output in settled logic values.
	tr := logicsim.SimulatePair(c, pair)
	if tr.Init[c.Outputs[0]] == tr.Final[c.Outputs[0]] {
		t.Errorf("no transition at the output under a robust test")
	}
}

func TestUntestablePathDetected(t *testing.T) {
	// o = AND(a, na) with na = NOT(a): a rising launch on the a->o pin
	// needs a = 1 in V2, but the side input na = NOT(a) must be
	// non-controlling (1) in V2, forcing a = 0 — contradiction. The
	// falling launch (a = 0 in V2, na = 1) is fine non-robustly, but a
	// robust test needs na steady 1, forcing a = 0 in V1 too, which
	// contradicts the falling launch's a = 1 initial value.
	c := mustParse(t, "INPUT(a)\nOUTPUT(o)\nna = NOT(a)\no = AND(a, na)\n", "contra")
	m := timing.NewModel(c, timing.DefaultParams())
	o, _ := c.GateByName("o")
	p := path.KLongestThrough(c, m.Nominal, o.InArcs[0], 1)[0]
	gen := NewGenerator(c)
	r := rng.New(2)
	if _, err := gen.PathTest(p, true, false, r); err == nil {
		t.Errorf("rising contradictory path tested")
	} else if !errors.Is(err, ErrUntestable) && !errors.Is(err, ErrBudget) {
		t.Errorf("unexpected error type: %v", err)
	}
	if _, err := gen.PathTest(p, false, true, r); err == nil {
		t.Errorf("robust falling contradictory path tested")
	}
	pair, err := gen.PathTest(p, false, false, r)
	if err != nil {
		t.Errorf("valid non-robust falling test not found: %v", err)
	} else if err := CheckPathTest(c, p, pair, false); err != nil {
		t.Errorf("checker rejects it: %v", err)
	}
}

func TestCheckPathTestRejectsBadPairs(t *testing.T) {
	c := mustParse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n", "and2")
	m := timing.NewModel(c, timing.DefaultParams())
	o, _ := c.GateByName("o")
	p := path.KLongestThrough(c, m.Nominal, o.InArcs[0], 1)[0]
	// No transition at launch.
	pair := logicsim.PatternPair{V1: logicsim.Vector{true, true}, V2: logicsim.Vector{true, true}}
	if err := CheckPathTest(c, p, pair, false); err == nil {
		t.Errorf("stable launch accepted")
	}
	// Side input controlling in V2.
	pair = logicsim.PatternPair{V1: logicsim.Vector{false, true}, V2: logicsim.Vector{true, false}}
	if err := CheckPathTest(c, p, pair, false); err == nil {
		t.Errorf("controlling side input accepted")
	}
	// Robust needs steady side: 0->1 on b rejected for robust, fine for non-robust.
	pair = logicsim.PatternPair{V1: logicsim.Vector{false, false}, V2: logicsim.Vector{true, true}}
	if err := CheckPathTest(c, p, pair, true); err == nil {
		t.Errorf("unsteady side accepted as robust")
	}
	if err := CheckPathTest(c, p, pair, false); err != nil {
		t.Errorf("valid non-robust rejected: %v", err)
	}
}

func TestGeneratedTestsOnSynthetic(t *testing.T) {
	c, err := synth.GenerateNamed("small", 10)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	r := rng.New(33)
	// Most of the structurally longest paths are false (statically
	// unsensitizable) in reconvergent circuits, so witness discovery
	// must back the structural selector up: use the full diagnostic
	// pattern flow through a mid-circuit site.
	site := circuit.ArcID(len(c.Arcs) / 2)
	tests := DiagnosticPatterns(c, m.Nominal, site, 8, r)
	if len(tests) == 0 {
		t.Fatalf("no diagnostic patterns for site %d", site)
	}
	for _, tc := range tests {
		if !tc.Path.Contains(site) {
			t.Errorf("diagnostic path misses the site")
		}
	}
	for i, tc := range tests {
		if err := CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
			t.Errorf("test %d fails verification: %v", i, err)
		}
	}
	// Duplicates removed.
	seen := map[string]bool{}
	for _, tc := range tests {
		k := tc.Pair.String()
		if seen[k] {
			t.Errorf("duplicate pair %s", k)
		}
		seen[k] = true
	}
}

func TestGeneratedTestsThroughSites(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 14)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	r := rng.New(8)
	found := 0
	for site := 0; site < len(c.Arcs); site += 7 {
		paths := path.KLongestThrough(c, m.Nominal, circuit.ArcID(site), 10)
		tests := PathSetTests(c, paths, true, r)
		for _, tc := range tests {
			if !tc.Path.Contains(circuit.ArcID(site)) {
				t.Errorf("site %d: test path misses the site", site)
			}
			if err := CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
				t.Errorf("site %d: %v", site, err)
			}
			found++
		}
	}
	if found == 0 {
		t.Errorf("no tests generated for any site")
	}
}

func TestRandomPairs(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 14)
	r := rng.New(4)
	ps := randomPairs(c, 10, r)
	if len(ps) != 10 {
		t.Fatalf("pairs = %d", len(ps))
	}
	for _, p := range ps {
		if len(p.V1) != len(c.Inputs) || len(p.V2) != len(c.Inputs) {
			t.Errorf("pair width wrong")
		}
	}
}

func TestGeneratorDeterministicWithSeed(t *testing.T) {
	c, _ := synth.GenerateNamed("small", 10)
	m := timing.NewModel(c, timing.DefaultParams())
	paths := path.KLongest(c, m.Nominal, 6)
	a := PathSetTests(c, paths, true, rng.New(42))
	b := PathSetTests(c, paths, true, rng.New(42))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Pair.String() != b[i].Pair.String() {
			t.Errorf("pair %d differs", i)
		}
	}
}

// randomPairs generates n random two-vector patterns, the untargeted
// baseline pattern source.
func randomPairs(c *circuit.Circuit, n int, r *rand.Rand) []logicsim.PatternPair {
	out := make([]logicsim.PatternPair, n)
	for i := range out {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for j := range v1 {
			v1[j] = r.IntN(2) == 1
			v2[j] = r.IntN(2) == 1
		}
		out[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	return out
}
