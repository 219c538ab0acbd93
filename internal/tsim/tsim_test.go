package tsim

import (
	"math"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func chain(t *testing.T) (*circuit.Circuit, *timing.Model) {
	t.Helper()
	src := "INPUT(a)\nOUTPUT(n2)\nn1 = NOT(a)\nn2 = NOT(n1)\n"
	c, err := benchfmt.ParseString(src, "chain", false)
	if err != nil {
		t.Fatal(err)
	}
	return c, timing.NewModel(c, timing.DefaultParams())
}

// lastStep is the time of the last step of gate g's waveform in res,
// 0 when g never changes; at an infinite horizon this is g's arrival
// time.
func lastStep(res *Result, g circuit.GateID) float64 {
	if w := res.Waveform(g); len(w) > 0 {
		return w[len(w)-1].T
	}
	return 0
}

func TestChainTimedPropagation(t *testing.T) {
	c, m := chain(t)
	in := m.NominalInstance()
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}

	res := Simulate(c, in.Delays, pair, Quiescent())
	// a: 0->1, n1: 1->0, n2: 0->1, port follows n2.
	port := c.Outputs[0]
	if !res.Capture[0] {
		t.Errorf("quiescent capture = %v, want true", res.Capture[0])
	}
	arr := m.ArrivalTimes(in)
	if got := lastStep(res, port); math.Abs(got-arr[port]) > 1e-12 {
		t.Errorf("arrival = %v, STA says %v", got, arr[port])
	}

	// Capture earlier than the path delay: output still at old value.
	early := Simulate(c, in.Delays, pair, AtClock(arr[port]/2))
	if early.Capture[0] {
		t.Errorf("early capture saw the new value")
	}
	fails := early.FailingOutputs(c)
	if len(fails) != 1 || fails[0] != 0 {
		t.Errorf("early capture fails = %v, want [0]", fails)
	}
	// Capture exactly at the arrival time: transition included.
	exact := Simulate(c, in.Delays, pair, AtClock(arr[port]))
	if !exact.Capture[0] {
		t.Errorf("capture at arrival missed the transition")
	}
}

func TestQuiescentMatchesLogicFinal(t *testing.T) {
	c, err := synth.GenerateNamed("small", 17)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	eng := NewEngine(c)
	r := rng.New(31)
	for trial := 0; trial < 25; trial++ {
		inst := m.SampleInstance(r)
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for i := range v1 {
			v1[i] = r.IntN(2) == 1
			v2[i] = r.IntN(2) == 1
		}
		res := eng.Run(inst.Delays, logicsim.PatternPair{V1: v1, V2: v2}, Quiescent())
		for i, o := range c.Outputs {
			if res.Capture[i] != res.Final[o] {
				t.Fatalf("trial %d: quiescent capture differs from settled value at output %d", trial, i)
			}
		}
		if len(res.FailingOutputs(c)) != 0 {
			t.Fatalf("trial %d: quiescent run reports failures", trial)
		}
	}
}

func TestDefectOverlayDelaysOutput(t *testing.T) {
	c, m := chain(t)
	in := m.NominalInstance()
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	arr := m.ArrivalTimes(in)[c.Outputs[0]]
	clk := arr + 0.01 // just passes defect-free

	good := Simulate(c, in.Delays, pair, AtClock(clk))
	if len(good.FailingOutputs(c)) != 0 {
		t.Fatalf("defect-free chain fails at clk")
	}
	n1, _ := c.GateByName("n1")
	opts := AtClock(clk)
	opts.DefectArc = n1.InArcs[0]
	opts.DefectExtra = 0.5
	bad := Simulate(c, in.Delays, pair, opts)
	if len(bad.FailingOutputs(c)) != 1 {
		t.Errorf("defective chain passes at clk")
	}
	// Delays slice itself must be untouched by the overlay.
	if in.Delays[n1.InArcs[0]] != m.Nominal[n1.InArcs[0]] {
		t.Errorf("overlay mutated the instance")
	}
}

func TestHazardGlitchCapture(t *testing.T) {
	// o = XOR(a, buf(a)): flipping a produces a glitch at o whose width
	// equals the buffer delay; a capture inside the glitch window sees
	// the wrong value even though init == final.
	src := "INPUT(a)\nOUTPUT(o)\nb = BUF(a)\no = XOR(a, b)\n"
	c, err := benchfmt.ParseString(src, "glitch", false)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	in := m.NominalInstance()
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}

	full := Simulate(c, in.Delays, pair, Quiescent())
	o, _ := c.GateByName("o")
	wo := full.Waveform(o.ID)
	if len(wo) != 2 {
		t.Fatalf("expected a 2-step glitch at o, got %v", wo)
	}
	rise, fall := wo[0].T, wo[1].T
	if !(rise < fall) {
		t.Fatalf("glitch steps out of order: %v", wo)
	}
	// Capture inside the glitch (between rise at o and fall at o, plus
	// port delay) sees 1; the settled value is 0.
	port := &c.Gates[c.Outputs[0]]
	portD := in.Delays[port.InArcs[0]]
	mid := (rise+fall)/2 + portD
	inGlitch := Simulate(c, in.Delays, pair, AtClock(mid))
	if !inGlitch.Capture[0] {
		t.Errorf("capture inside glitch missed the hazard")
	}
	if len(inGlitch.FailingOutputs(c)) != 1 {
		t.Errorf("glitch capture not reported as failure")
	}
	after := Simulate(c, in.Delays, pair, AtClock(fall+portD+0.01))
	if after.Capture[0] {
		t.Errorf("capture after glitch still sees hazard")
	}
}

func TestTransitionedFlags(t *testing.T) {
	c, m := chain(t)
	in := m.NominalInstance()
	pair := logicsim.PatternPair{V1: logicsim.Vector{true}, V2: logicsim.Vector{true}}
	res := Simulate(c, in.Delays, pair, Quiescent())
	for g := range c.Gates {
		if res.Transitioned(circuit.GateID(g)) {
			t.Errorf("gate %d transitioned under a stable pattern", g)
		}
	}
	pair2 := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	res2 := Simulate(c, in.Delays, pair2, Quiescent())
	n2, _ := c.GateByName("n2")
	if !res2.Transitioned(n2.ID) {
		t.Errorf("chain gate did not transition")
	}
}

func TestEngineReuseIsClean(t *testing.T) {
	c, m := chain(t)
	in := m.NominalInstance()
	eng := NewEngine(c)
	rise := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	stable := logicsim.PatternPair{V1: logicsim.Vector{true}, V2: logicsim.Vector{true}}
	_ = eng.Run(in.Delays, rise, Quiescent())
	res := eng.Run(in.Delays, stable, Quiescent())
	for g := range c.Gates {
		if res.Transitioned(circuit.GateID(g)) {
			t.Errorf("stale transition flag on gate %d after engine reuse", g)
		}
	}
	if lastStep(res, c.Outputs[0]) != 0 {
		t.Errorf("stale output step after engine reuse")
	}
}

func TestCheckPair(t *testing.T) {
	c, _ := chain(t)
	if err := CheckPair(c, logicsim.PatternPair{V1: logicsim.Vector{true}, V2: logicsim.Vector{false}}); err != nil {
		t.Errorf("valid pair rejected: %v", err)
	}
	if err := CheckPair(c, logicsim.PatternPair{}); err == nil {
		t.Errorf("empty pair accepted")
	}
}

func TestSameDriverOnTwoPins(t *testing.T) {
	// A gate reading the same driver on two pins with distinct arcs:
	// o = XOR(a, a). The two pins carry different delays, so a single
	// input flip produces a glitch whose width is the arc-delay
	// difference, and the settled value is constant 0.
	b := circuit.NewBuilder("dup")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGate("o", circuit.Xor, "a", "a"); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput("o")
	c, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := c.GateByName("o")
	// Hand-set distinct pin delays.
	delays := make([]float64, len(c.Arcs))
	for i := range delays {
		delays[i] = 1
	}
	delays[o.InArcs[0]] = 1.0
	delays[o.InArcs[1]] = 2.5
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	res := Simulate(c, delays, pair, Quiescent())
	if res.Capture[0] != false {
		t.Errorf("settled value of XOR(a,a) must be 0")
	}
	// Glitch: rises at 1.0, falls at 2.5 at gate o.
	w := res.Waveform(o.ID)
	if len(w) != 2 || w[0].T != 1.0 || !w[0].V || w[1].T != 2.5 || w[1].V {
		t.Errorf("glitch waveform = %v, want rise@1 fall@2.5", w)
	}
}

func TestZeroWidthPulseSuppressed(t *testing.T) {
	// Equal pin delays: XOR(a,a) sees both pin changes at the same
	// instant; the output must show no transition at all.
	b := circuit.NewBuilder("dup0")
	_ = b.AddInput("a")
	_ = b.AddGate("o", circuit.Xor, "a", "a")
	b.MarkOutput("o")
	c, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, len(c.Arcs))
	for i := range delays {
		delays[i] = 1.5
	}
	pair := logicsim.PatternPair{V1: logicsim.Vector{false}, V2: logicsim.Vector{true}}
	res := Simulate(c, delays, pair, Quiescent())
	o, _ := c.GateByName("o")
	// Both pin changes apply at one instant, so the right-continuous
	// waveform has no step at all and the capture at every time is 0.
	if w := res.Waveform(o.ID); len(w) != 0 {
		t.Errorf("zero-width pulse recorded as %v", w)
	}
	if res.Capture[0] {
		t.Errorf("captured 1 from a zero-width pulse")
	}
}

func TestHorizonCutoffConsistent(t *testing.T) {
	// Captures with a finite horizon must equal the waveform value at
	// that time from an unbounded run.
	c, err := synth.GenerateNamed("mini", 29)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	r := rng.New(3)
	inst := m.SampleInstance(r)
	v1 := make(logicsim.Vector, len(c.Inputs))
	v2 := make(logicsim.Vector, len(c.Inputs))
	for i := range v1 {
		v1[i] = r.IntN(2) == 1
		v2[i] = r.IntN(2) == 1
	}
	pair := logicsim.PatternPair{V1: v1, V2: v2}
	full := Simulate(c, inst.Delays, pair, Quiescent())

	for _, clk := range []float64{1, 3, 5, 8, 12} {
		capped := Simulate(c, inst.Delays, pair, AtClock(clk))
		for i, o := range c.Outputs {
			want := full.Init[o]
			for _, st := range full.Waveform(o) {
				if st.T <= clk {
					want = st.V
				}
			}
			if capped.Capture[i] != want {
				t.Errorf("clk=%v output %d: capture %v, waveform says %v", clk, i, capped.Capture[i], want)
			}
		}
	}
}
