package eval

import (
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func synthGenerate(t *testing.T) (*circuit.Circuit, error) {
	t.Helper()
	return synth.GenerateNamed("mini", 5)
}

func timingModel(c *circuit.Circuit) *timing.Model {
	return timing.NewModel(c, timing.DefaultParams())
}

// randomPats generates n random two-vector patterns.
func randomPats(c *circuit.Circuit, n int) []logicsim.PatternPair {
	r := rng.New(9)
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

func TestCapSuspectsKeepsStrictTier(t *testing.T) {
	strict := []circuit.ArcID{2, 5, 9}
	relaxed := []circuit.ArcID{1, 3, 4, 6, 7, 8}
	out := capSuspects(strict, relaxed, 5, rng.New(1))
	if len(out) != 5 {
		t.Fatalf("capped size = %d", len(out))
	}
	has := map[circuit.ArcID]bool{}
	for i, a := range out {
		has[a] = true
		if i > 0 && out[i-1] >= a {
			t.Errorf("capped set not sorted")
		}
	}
	for _, a := range strict {
		if !has[a] {
			t.Errorf("strict arc %d dropped by the cap", a)
		}
	}
}

func TestCapSuspectsStrictOverflow(t *testing.T) {
	strict := []circuit.ArcID{1, 2, 3, 4, 5, 6}
	out := capSuspects(strict, nil, 4, rng.New(1))
	if len(out) != 4 {
		t.Errorf("overflowing strict tier not truncated: %v", out)
	}
}

func TestCapSuspectsDeterministic(t *testing.T) {
	strict := []circuit.ArcID{10}
	relaxed := []circuit.ArcID{1, 2, 3, 4, 5, 6, 7, 8, 9}
	a := capSuspects(strict, relaxed, 5, rng.New(42))
	b := capSuspects(strict, relaxed, 5, rng.New(42))
	if len(a) != len(b) {
		t.Fatalf("sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cap not deterministic at %d", i)
		}
	}
}

func TestMaxSuspectsConfigRespected(t *testing.T) {
	cfg := fastConfig("small", 5)
	cfg.MaxSuspects = 20
	res, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Cases {
		if cs.Suspects > 20 {
			t.Errorf("case %d has %d suspects, cap 20", cs.Instance, cs.Suspects)
		}
	}
}

func TestRunOnParsedCircuit(t *testing.T) {
	// The harness must accept externally parsed netlists, not only
	// synth profiles — the drop-in path for real ISCAS'89 files.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o1)
OUTPUT(o2)
g1 = NAND(a, b)
g2 = NOR(c, d)
g3 = AND(g1, g2)
g4 = XOR(g1, c)
o1 = OR(g3, g4)
o2 = NAND(g4, d)
`
	c, err := benchfmt.ParseString(src, "external", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig("ignored", 3)
	res, err := RunOnCircuit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 3 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
}

func TestRunOnCircuitValidation(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 1)
	cfg := fastConfig("mini", 0)
	if _, err := RunOnCircuit(c, cfg); err == nil {
		t.Errorf("N=0 accepted")
	}
	if _, err := RunCircuit(fastConfig("does-not-exist", 2)); err == nil {
		t.Errorf("unknown profile accepted")
	}
}

func TestPatternResponseQuantileMonotone(t *testing.T) {
	c, err := synthGenerate(t)
	if err != nil {
		t.Fatal(err)
	}
	m := timingModel(c)
	pats := randomPats(c, 4)
	prev := 0.0
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		v := PatternResponseQuantile(m, pats, q, 150, 3, 0)
		if v < prev {
			t.Errorf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	// Deterministic across worker counts.
	a := PatternResponseQuantile(m, pats, 0.5, 100, 3, 1)
	b := PatternResponseQuantile(m, pats, 0.5, 100, 3, 4)
	if a != b {
		t.Errorf("quantile depends on workers: %v vs %v", a, b)
	}
}
