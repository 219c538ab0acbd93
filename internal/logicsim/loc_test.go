package logicsim

import (
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
)

// locFixture: one DFF, so one PPI/PPO pair after scan conversion.
const locBench = `
INPUT(a)
INPUT(b)
OUTPUT(out)
q = DFF(d)
d = NAND(a, q)
out = NOR(b, q)
`

func TestBuildScanMap(t *testing.T) {
	c, err := benchfmt.ParseString(locBench, "loc", true)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildScanMap(c, 2, 1)
	if len(sm.PPIs) != 1 || len(sm.PPOs) != 1 {
		t.Fatalf("scan map = %+v", sm)
	}
	// The pseudo input is the DFF output q.
	q := c.Gates[c.Inputs[sm.PPIs[0]]]
	if q.Name != "q" {
		t.Errorf("pseudo input = %s, want q", q.Name)
	}
	// The pseudo output drives from d.
	po := c.Gates[c.Outputs[sm.PPOs[0]]]
	if c.Gates[po.Fanin[0]].Name != "d" {
		t.Errorf("pseudo output source = %s, want d", c.Gates[po.Fanin[0]].Name)
	}
}

func TestLaunchOnCaptureDerivesNextState(t *testing.T) {
	c, err := benchfmt.ParseString(locBench, "loc", true)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildScanMap(c, 2, 1)
	// v1: a=1, b=0, q=1 -> d = NAND(1,1) = 0: next q must be 0.
	v1 := Vector{true, false, true}
	v2 := LaunchOnCapture(c, sm, v1, nil)
	if v2[sm.PPIs[0]] != false {
		t.Errorf("next state = %v, want false", v2[sm.PPIs[0]])
	}
	// Primary inputs unchanged when piV2 is nil.
	if v2[0] != v1[0] || v2[1] != v1[1] {
		t.Errorf("PIs changed without piV2")
	}
	// With piV2, the PI bits take the new values.
	v2b := LaunchOnCapture(c, sm, v1, Vector{false, true})
	if v2b[0] != false || v2b[1] != true {
		t.Errorf("piV2 not applied: %v", v2b)
	}
	if !isLaunchOnCapture(c, sm, PatternPair{V1: v1, V2: v2}) {
		t.Errorf("derived pair not recognized as broadside")
	}
	bad := PatternPair{V1: v1, V2: Vector{true, false, true}} // q stays 1: illegal
	if isLaunchOnCapture(c, sm, bad) {
		t.Errorf("non-broadside pair accepted")
	}
}

func TestBuildScanMapOnSynth(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	// small: 10 PI, 8 PO, 4 DFF.
	sm := BuildScanMap(c, 10, 8)
	if len(sm.PPIs) != 4 || len(sm.PPOs) != 4 {
		t.Fatalf("scan map sizes = %d/%d, want 4/4", len(sm.PPIs), len(sm.PPOs))
	}
	// Derived broadside pairs are always self-consistent.
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		v1 := make(Vector, len(c.Inputs))
		for i := range v1 {
			v1[i] = r.IntN(2) == 1
		}
		v2 := LaunchOnCapture(c, sm, v1, nil)
		if !isLaunchOnCapture(c, sm, PatternPair{V1: v1, V2: v2}) {
			t.Fatalf("trial %d: derived pair inconsistent", trial)
		}
	}
}

// isLaunchOnCapture reports whether a pattern pair is realizable in
// broadside form: every pseudo input's v2 value equals the
// corresponding pseudo output's settled value under v1.
func isLaunchOnCapture(c *circuit.Circuit, m ScanMap, p PatternPair) bool {
	vals := Eval(c, p.V1)
	for i, ppi := range m.PPIs {
		if p.V2[ppi] != vals[c.Outputs[m.PPOs[i]]] {
			return false
		}
	}
	return true
}
