package tsim

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// refValue is an independent reference implementation of the
// transport-delay semantics: the output of gate g at time t is its
// function over each fan-in's value at time t − d_pin, recursing down
// to the inputs (which switch from V1 to V2 at t = 0, inclusive).
// It evaluates pointwise with no event queue at all, so it cannot
// share bugs with the kernel or the event oracle.
func refValue(c *circuit.Circuit, delays []float64, opts *Options, p logicsim.PatternPair, g circuit.GateID, t float64) bool {
	gate := &c.Gates[g]
	if gate.Type == circuit.Input {
		for i, in := range c.Inputs {
			if in == g {
				if t >= 0 {
					return p.V2[i]
				}
				return p.V1[i]
			}
		}
		panic("input gate not in input list")
	}
	vals := make([]bool, len(gate.Fanin))
	for k, fi := range gate.Fanin {
		vals[k] = refValue(c, delays, opts, p, fi, t-arcDelay(delays, opts, gate.InArcs[k]))
	}
	return gate.Type.Eval(vals)
}

// TestEngineMatchesPointwiseOracle cross-checks the waveform kernel
// against the pointwise oracle on random circuits, patterns, defect
// overlays and capture times.
func TestEngineMatchesPointwiseOracle(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 21)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	r := rng.New(77)
	eng := NewEngine(c)
	for trial := 0; trial < 40; trial++ {
		inst := m.SampleInstance(r)
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for i := range v1 {
			v1[i] = r.IntN(2) == 1
			v2[i] = r.IntN(2) == 1
		}
		pair := logicsim.PatternPair{V1: v1, V2: v2}
		opts := AtClock(2 + 10*r.Float64())
		if trial%3 == 0 { // every third trial carries a defect overlay
			opts.DefectArc = circuit.ArcID(r.IntN(len(c.Arcs)))
			opts.DefectExtra = 2 * r.Float64()
		}
		res := eng.Run(inst.Delays, pair, opts)
		for i, o := range c.Outputs {
			want := refValue(c, inst.Delays, &opts, pair, o, opts.Horizon)
			if res.Capture[i] != want {
				t.Fatalf("trial %d output %d at clk=%v: engine %v, oracle %v",
					trial, i, opts.Horizon, res.Capture[i], want)
			}
		}
	}
}

// TestOracleAgreesOnGlitches pins the oracle and the engine to the
// same glitch semantics on the canonical hazard circuit.
func TestOracleAgreesOnGlitches(t *testing.T) {
	b := circuit.NewBuilder("glitch")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGate("buf", circuit.Buf, "a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGate("o", circuit.Xor, "a", "buf"); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput("o")
	c, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	eng := NewEngine(c)
	for clk := 0.0; clk < 4; clk += 0.05 {
		opts := AtClock(clk)
		res := eng.Run(inst.Delays, pair, opts)
		want := refValue(c, inst.Delays, &opts, pair, c.Outputs[0], clk)
		if res.Capture[0] != want {
			t.Fatalf("clk=%v: engine %v, oracle %v", clk, res.Capture[0], want)
		}
	}
}
