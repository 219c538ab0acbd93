package atpg

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func TestSensitizedPathsThrough(t *testing.T) {
	c, err := synth.GenerateNamed("small", 10)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(55)
	site := circuit.ArcID(len(c.Arcs) / 3)
	res := SensitizedPathsThrough(c, site, 5, 400, r)
	if len(res) == 0 {
		t.Skip("no witnesses found for this site; site-dependent")
	}
	for i, tc := range res {
		if !tc.Path.Contains(site) {
			t.Errorf("witness %d misses the site", i)
		}
		if err := tc.Path.Validate(c); err != nil {
			t.Errorf("witness %d invalid path: %v", i, err)
		}
		if err := CheckPathTest(c, tc.Path, tc.Pair, false); err != nil {
			t.Errorf("witness %d fails verification: %v", i, err)
		}
	}
}

func TestDiagnosticPatternsProperties(t *testing.T) {
	c, err := synth.GenerateNamed("small", 10)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	r := rng.New(9)
	nFound := 0
	for _, frac := range []int{5, 3, 2} {
		site := circuit.ArcID(len(c.Arcs) / frac)
		tests := DiagnosticPatterns(c, m.Nominal, site, 6, r)
		nFound += len(tests)
		if len(tests) > 6 {
			t.Errorf("site %d: more than maxPatterns tests", site)
		}
		seen := map[string]bool{}
		for i, tc := range tests {
			if !tc.Path.Contains(site) {
				t.Errorf("site %d test %d misses site", site, i)
			}
			if tc.Path.Nominal <= 0 {
				t.Errorf("site %d test %d has no nominal length", site, i)
			}
			if i > 0 && tests[i-1].Path.Nominal < tc.Path.Nominal-1e-12 {
				t.Errorf("site %d tests not sorted by length", site)
			}
			k := tc.Pair.String()
			if seen[k] {
				t.Errorf("site %d duplicate pair", site)
			}
			seen[k] = true
			if err := CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
				t.Errorf("site %d test %d: %v", site, i, err)
			}
		}
	}
	if nFound == 0 {
		t.Errorf("no diagnostic patterns for any site")
	}
}

func TestDiagnosticPatternsDeterministic(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 14)
	m := timing.NewModel(c, timing.DefaultParams())
	site := circuit.ArcID(len(c.Arcs) / 2)
	a := DiagnosticPatterns(c, m.Nominal, site, 5, rng.New(77))
	b := DiagnosticPatterns(c, m.Nominal, site, 5, rng.New(77))
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i].Pair.String() != b[i].Pair.String() {
			t.Errorf("pattern %d differs", i)
		}
	}
}

// sensitizedPathsThroughScalar is the trial-at-a-time witness search:
// each pair is drawn, simulated and traced toward every observing
// output on its own. It is the oracle for SensitizedPathsThrough,
// whose word-parallel screen must keep exactly the witnesses, in
// exactly the order, that this loop keeps.
func sensitizedPathsThroughScalar(c *circuit.Circuit, site circuit.ArcID, want, tries int, r *rand.Rand) []PathTestResult {
	var out []PathTestResult
	seenPath := make(map[string]bool)
	a := c.Arcs[site]
	launchCone := c.FaninCone(a.From)
	inCone := make([]bool, len(c.Inputs))
	for i, g := range c.Inputs {
		inCone[i] = launchCone.Has(g)
	}
	observing := c.OutputsReachedFrom(a.To)
	pair := logicsim.PatternPair{V1: make(logicsim.Vector, len(c.Inputs)), V2: make(logicsim.Vector, len(c.Inputs))}
	var tr logicsim.Transition
	for trial := 0; trial < tries && len(out) < want; trial++ {
		biasedPair(pair, inCone, r)
		tr.Init = logicsim.EvalInto(tr.Init, c, pair.V1)
		tr.Final = logicsim.EvalInto(tr.Final, c, pair.V2)
		if tr.Init[a.From] == tr.Final[a.From] {
			continue // site driver does not even transition
		}
		for _, oi := range observing {
			if o := c.Outputs[oi]; tr.Init[o] == tr.Final[o] {
				continue
			}
			arcs := logicsim.SensitizedArcs(c, tr, oi)
			if !arcs.Has(site) {
				continue
			}
			p, ok := extractPathThrough(c, arcs, site, oi)
			if !ok {
				continue
			}
			key := pathKey(p)
			if seenPath[key] {
				continue
			}
			if CheckPathTest(c, p, pair, false) != nil {
				continue
			}
			seenPath[key] = true
			kept := logicsim.PatternPair{V1: slices.Clone(pair.V1), V2: slices.Clone(pair.V2)}
			out = append(out, PathTestResult{Path: p, Pair: kept, Robust: false})
			if len(out) >= want {
				break
			}
		}
	}
	return out
}
