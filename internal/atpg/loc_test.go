package atpg

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
)

func TestDiagnosticPatternsLoC(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	sm := logicsim.BuildScanMap(c, 10, 8) // small: 10 PI, 8 PO
	r := rng.New(5)
	found := 0
	for _, frac := range []int{5, 3, 2} {
		site := circuit.ArcID(len(c.Arcs) / frac)
		tests := DiagnosticPatternsLoC(c, sm, site, 4, 3000, r)
		found += len(tests)
		for i, tc := range tests {
			if !tc.Path.Contains(site) {
				t.Errorf("site %d test %d misses site", site, i)
			}
			if err := CheckPathTest(c, tc.Path, tc.Pair, false); err != nil {
				t.Errorf("site %d test %d: %v", site, i, err)
			}
			if !isLaunchOnCapture(c, sm, tc.Pair) {
				t.Errorf("site %d test %d: pair violates the broadside constraint", site, i)
			}
		}
	}
	if found == 0 {
		t.Skip("no broadside witnesses for these sites; constraint-dependent")
	}
}

func TestLoCYieldBelowEnhancedScan(t *testing.T) {
	// The broadside constraint can only shrink the reachable pattern
	// space; across a handful of sites its yield should not exceed the
	// unconstrained witness search by more than noise.
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	sm := logicsim.BuildScanMap(c, 10, 8)
	locTotal, esTotal := 0, 0
	for site := 10; site < len(c.Arcs); site += 37 {
		locTotal += len(DiagnosticPatternsLoC(c, sm, circuit.ArcID(site), 3, 800, rng.New(uint64(site))))
		esTotal += len(SensitizedPathsThrough(c, circuit.ArcID(site), 3, 800, rng.New(uint64(site))))
	}
	if locTotal > esTotal+3 {
		t.Errorf("broadside yield %d exceeds enhanced-scan yield %d", locTotal, esTotal)
	}
	t.Logf("yield: broadside %d vs enhanced-scan %d", locTotal, esTotal)
}

// isLaunchOnCapture reports whether a pattern pair is realizable in
// broadside form: every pseudo input's v2 value equals the
// corresponding pseudo output's settled value under v1.
func isLaunchOnCapture(c *circuit.Circuit, m logicsim.ScanMap, p logicsim.PatternPair) bool {
	vals := logicsim.Eval(c, p.V1)
	for i, ppi := range m.PPIs {
		if p.V2[ppi] != vals[c.Outputs[m.PPOs[i]]] {
			return false
		}
	}
	return true
}
