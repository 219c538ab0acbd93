package logicsim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
)

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func parseC17(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := benchfmt.ParseString(c17Bench, "c17", false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// c17Ref computes c17's outputs directly from its equations.
func c17Ref(g1, g2, g3, g6, g7 bool) (g22, g23 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	n10 := nand(g1, g3)
	n11 := nand(g3, g6)
	n16 := nand(g2, n11)
	n19 := nand(n11, g7)
	return nand(n10, n16), nand(n16, n19)
}

func TestEvalC17Exhaustive(t *testing.T) {
	c := parseC17(t)
	for m := 0; m < 32; m++ {
		in := Vector{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0, m&16 != 0}
		vals := Eval(c, in)
		out := outputValues(c, vals)
		w22, w23 := c17Ref(in[0], in[1], in[2], in[3], in[4])
		if out[0] != w22 || out[1] != w23 {
			t.Errorf("m=%d: got %v/%v want %v/%v", m, out[0], out[1], w22, w23)
		}
	}
}

func TestEvalWidthMismatchPanics(t *testing.T) {
	c := parseC17(t)
	defer func() {
		if recover() == nil {
			t.Errorf("short vector accepted")
		}
	}()
	Eval(c, Vector{true})
}

func randomVectors(r *rand.Rand, c *circuit.Circuit, n int) []Vector {
	vectors := make([]Vector, n)
	for i := range vectors {
		v := make(Vector, len(c.Inputs))
		for j := range v {
			v[j] = r.IntN(2) == 1
		}
		vectors[i] = v
	}
	return vectors
}

func mustPack(t *testing.T, c *circuit.Circuit, vectors []Vector) []uint64 {
	t.Helper()
	in, err := packVectors(c, vectors)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEvalWordsMatchesScalar(t *testing.T) {
	c, err := synth.GenerateNamed("small", 13)
	if err != nil {
		t.Fatal(err)
	}
	vectors := randomVectors(rng.New(21), c, 64)
	words := EvalWordsInto(nil, c, mustPack(t, c, vectors))
	for b, v := range vectors {
		vals := Eval(c, v)
		for g := range vals {
			wordBit := words[g]>>uint(b)&1 == 1
			if vals[g] != wordBit {
				t.Fatalf("pattern %d gate %d: scalar %v word %v", b, g, vals[g], wordBit)
			}
		}
	}
}

// TestEvalWordsIntoReusesBuffer: the Into form must not allocate when
// handed a large-enough destination, and must overwrite stale contents.
func TestEvalWordsIntoReusesBuffer(t *testing.T) {
	c := parseC17(t)
	vectors := randomVectors(rng.New(5), c, 64)
	in := mustPack(t, c, vectors)
	want := EvalWordsInto(nil, c, in)

	dst := make([]uint64, len(c.Gates))
	for i := range dst {
		dst[i] = ^uint64(0) // stale garbage the kernel must clear
	}
	got := EvalWordsInto(dst, c, in)
	if &got[0] != &dst[0] {
		t.Error("EvalWordsInto reallocated despite sufficient capacity")
	}
	for g := range want {
		if got[g] != want[g] {
			t.Fatalf("gate %d: got %#x want %#x", g, got[g], want[g])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		EvalWordsInto(dst, c, in)
	})
	if allocs != 0 {
		t.Errorf("EvalWordsInto allocates %.1f/op with reusable dst, want 0", allocs)
	}
}

func TestPackVectorsErrors(t *testing.T) {
	c := parseC17(t)
	vs := make([]Vector, 65)
	for i := range vs {
		vs[i] = make(Vector, len(c.Inputs))
	}
	if _, err := packVectors(c, vs); err == nil {
		t.Error("packVectors accepted 65 vectors")
	}
	if _, err := packVectors(c, []Vector{make(Vector, 1)}); err == nil {
		t.Error("packVectors accepted a width-mismatched vector")
	}
	if in, err := packVectors(c, nil); err != nil || len(in) != len(c.Inputs) {
		t.Errorf("packVectors(nil) = %v, %v", in, err)
	}
}

// TestPackVectorsRaggedTail pins the documented tail contract: packing
// fewer than 64 vectors leaves the high bits of every word zero, so
// the unused lanes evaluate the all-zeros input and callers must mask
// with TailMask before aggregating across lanes.
func TestPackVectorsRaggedTail(t *testing.T) {
	c := parseC17(t)
	vectors := randomVectors(rng.New(9), c, 5)
	in := mustPack(t, c, vectors)
	mask := TailMask(len(vectors))
	for i, w := range in {
		if w&^mask != 0 {
			t.Errorf("input word %d has tail bits set: %#x", i, w)
		}
	}
	words := EvalWordsInto(nil, c, in)
	zeros := Eval(c, make(Vector, len(c.Inputs)))
	for g, w := range words {
		wantTail := uint64(0)
		if zeros[g] {
			wantTail = ^mask
		}
		if w&^mask != wantTail {
			t.Errorf("gate %d tail lanes = %#x, want the all-zeros evaluation %#x", g, w&^mask, wantTail)
		}
	}
}

func TestTailMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{-1, 0}, {0, 0}, {1, 1}, {5, 0x1f}, {63, ^uint64(0) >> 1}, {64, ^uint64(0)}, {99, ^uint64(0)}}
	for _, tc := range cases {
		if got := TailMask(tc.n); got != tc.want {
			t.Errorf("TailMask(%d) = %#x, want %#x", tc.n, got, tc.want)
		}
	}
}

// TestSensitizedArcsWordsMatchesScalar: the 64-lane kernel must agree
// with the scalar walk on every lane, output, and arc — including
// ragged blocks.
func TestSensitizedArcsWordsMatchesScalar(t *testing.T) {
	for _, profile := range []string{"mini", "small"} {
		c, err := synth.GenerateNamed(profile, 7)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(31)
		for _, lanes := range []int{64, 17, 1} {
			v1s := randomVectors(r, c, lanes)
			v2s := randomVectors(r, c, lanes)
			init := EvalWordsInto(nil, c, mustPack(t, c, v1s))
			final := EvalWordsInto(nil, c, mustPack(t, c, v2s))
			dst := make([]uint64, len(c.Arcs))
			active := make([]uint64, len(c.Gates))
			for oi := range c.Outputs {
				for i := range dst {
					dst[i] = 0
				}
				SensitizedArcsWordsInto(dst, active, c, init, final, oi)
				for b := 0; b < lanes; b++ {
					tr := SimulatePair(c, PatternPair{v1s[b], v2s[b]})
					want := SensitizedArcs(c, tr, oi)
					for aid := range dst {
						gotBit := dst[aid]>>uint(b)&1 == 1
						if gotBit != want.Has(circuit.ArcID(aid)) {
							t.Fatalf("%s output %d lane %d arc %d: words %v scalar %v",
								profile, oi, b, aid, gotBit, want.Has(circuit.ArcID(aid)))
						}
					}
				}
				// Tail lanes must stay silent.
				for aid, w := range dst {
					if w&^TailMask(lanes) != 0 {
						t.Fatalf("%s output %d arc %d: tail lanes sensitized (%#x)", profile, oi, aid, w)
					}
				}
			}
		}
	}
}

func TestSimulatePairTransitions(t *testing.T) {
	c := parseC17(t)
	// V1 = all ones, V2 flips G3 -> many internal transitions.
	v1 := Vector{true, true, true, true, true}
	v2 := Vector{true, true, false, true, true}
	tr := SimulatePair(c, PatternPair{v1, v2})
	trans := transitions(c, tr)
	g3, _ := c.GateByName("G3")
	if !trans.Has(g3.ID) {
		t.Errorf("flipped input not transitioning")
	}
	n11, _ := c.GateByName("G11")
	// G11 = NAND(G3, G6): 1,1 -> 0,1 so 0 -> 1: transition.
	if !trans.Has(n11.ID) {
		t.Errorf("G11 should transition")
	}
	g1, _ := c.GateByName("G1")
	if trans.Has(g1.ID) {
		t.Errorf("stable input transitioning")
	}
}

func TestSensitizedArcsSimple(t *testing.T) {
	// o = AND(a, b); flip a with b=1: arc a->o is sensitized.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n"
	c, err := benchfmt.ParseString(src, "and2", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := SimulatePair(c, PatternPair{Vector{false, true}, Vector{true, true}})
	arcs := SensitizedArcs(c, tr, 0)
	o, _ := c.GateByName("o")
	aArc := o.InArcs[0]
	if !arcs.Has(aArc) {
		t.Errorf("a->o arc not sensitized")
	}
	if !arcs.Has(c.Gates[c.Outputs[0]].InArcs[0]) {
		t.Errorf("o->port arc not sensitized")
	}
	// With b=0 in V2, the AND is blocked: nothing sensitized, output
	// has no transition.
	tr2 := SimulatePair(c, PatternPair{Vector{false, false}, Vector{true, false}})
	arcs2 := SensitizedArcs(c, tr2, 0)
	if len(arcs2.IDs()) != 0 {
		t.Errorf("blocked path reported sensitized arcs: %d", len(arcs2.IDs()))
	}
}

func TestSensitizedArcsBlockedSideInput(t *testing.T) {
	// o = OR(a, b): flip a 0->1 while b=1 (controlling for OR):
	// output stays 1, no transition, nothing sensitized.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = OR(a, b)\n"
	c, err := benchfmt.ParseString(src, "or2", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := SimulatePair(c, PatternPair{Vector{false, true}, Vector{true, true}})
	arcs := SensitizedArcs(c, tr, 0)
	if len(arcs.IDs()) != 0 {
		t.Errorf("controlled OR sensitized %d arcs", len(arcs.IDs()))
	}
}

func TestSensitizedArcsXORAlwaysPropagates(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = XOR(a, b)\n"
	c, err := benchfmt.ParseString(src, "xor2", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := SimulatePair(c, PatternPair{Vector{false, false}, Vector{true, false}})
	arcs := SensitizedArcs(c, tr, 0)
	o, _ := c.GateByName("o")
	if !arcs.Has(o.InArcs[0]) {
		t.Errorf("XOR pin with transition not sensitized")
	}
	if arcs.Has(o.InArcs[1]) {
		t.Errorf("XOR pin without transition sensitized")
	}
}

func TestSensitizedArcsC17(t *testing.T) {
	c := parseC17(t)
	// All-ones to G3=0: G22 stays 1 (no trace), G23 rises 0->1.
	tr := SimulatePair(c, PatternPair{
		Vector{true, true, true, true, true},
		Vector{true, true, false, true, true},
	})
	if got := len(SensitizedArcs(c, tr, 0).IDs()); got != 0 {
		t.Errorf("stable output G22 sensitized %d arcs", got)
	}
	arcs := SensitizedArcs(c, tr, 1)
	// Every sensitized arc must join transitioning driver to a gate on
	// a path to G23.
	cone := c.FaninCone(c.Outputs[1])
	trans := transitions(c, tr)
	for _, id := range arcs.IDs() {
		a := c.Arcs[id]
		if !cone.Has(a.To) {
			t.Errorf("arc %v outside output cone", a)
		}
		if !trans.Has(a.From) {
			t.Errorf("arc %v driver does not transition", a)
		}
	}
	if len(arcs.IDs()) == 0 {
		t.Errorf("no sensitized arcs found")
	}
}

// Property: on random circuits and random pattern pairs, sensitized
// arcs always connect transitioning drivers within the output cone.
func TestSensitizedArcsProperty(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		v1 := make(Vector, len(c.Inputs))
		v2 := make(Vector, len(c.Inputs))
		for i := range v1 {
			v1[i] = r.IntN(2) == 1
			v2[i] = r.IntN(2) == 1
		}
		tr := SimulatePair(c, PatternPair{v1, v2})
		trans := transitions(c, tr)
		for oi := range c.Outputs {
			arcs := SensitizedArcs(c, tr, oi)
			cone := c.FaninCone(c.Outputs[oi])
			for _, id := range arcs.IDs() {
				a := c.Arcs[id]
				if !cone.Has(a.To) || !trans.Has(a.From) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFailingOutputs(t *testing.T) {
	exp := []bool{true, false, true}
	obs := []bool{true, true, false}
	fails := failingOutputs(exp, obs)
	if len(fails) != 2 || fails[0] != 1 || fails[1] != 2 {
		t.Errorf("fails = %v", fails)
	}
	if failingOutputs(exp, exp) != nil {
		t.Errorf("identical outputs failed")
	}
}

func TestPatternPairString(t *testing.T) {
	p := PatternPair{Vector{true, false}, Vector{false, true}}
	if p.String() != "10->01" {
		t.Errorf("String = %q", p.String())
	}
}

// outputValues extracts the primary-output values from a gate-value
// slice, indexed parallel to c.Outputs.
func outputValues(c *circuit.Circuit, vals []bool) []bool {
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = vals[o]
	}
	return out
}

// packVectors packs up to 64 vectors into the word-parallel input form
// consumed by EvalWordsInto: word i holds input i's value across the
// vectors, bit b belonging to vectors[b]. With fewer than 64 vectors
// the high bits of every word stay zero, the same ragged-tail contract
// as PackPatternPairsInto.
func packVectors(c *circuit.Circuit, vectors []Vector) ([]uint64, error) {
	if len(vectors) > 64 {
		return nil, fmt.Errorf("logicsim: %d vectors exceed the 64-per-word limit", len(vectors))
	}
	in := make([]uint64, len(c.Inputs))
	for b, v := range vectors {
		if len(v) != len(c.Inputs) {
			return nil, fmt.Errorf("logicsim: vector %d has %d values for %d inputs", b, len(v), len(c.Inputs))
		}
		for i, bit := range v {
			if bit {
				in[i] |= 1 << uint(b)
			}
		}
	}
	return in, nil
}

// transitions returns the set of gates whose settled value changes
// between the two vectors of tr.
func transitions(c *circuit.Circuit, tr Transition) circuit.GateSet {
	s := c.NewGateSet()
	for i := range tr.Init {
		if tr.Init[i] != tr.Final[i] {
			s.Add(circuit.GateID(i))
		}
	}
	return s
}

// failingOutputs compares observed against expected output values and
// returns the indices that mismatch.
func failingOutputs(expected, observed []bool) []int {
	var fails []int
	for i := range expected {
		if expected[i] != observed[i] {
			fails = append(fails, i)
		}
	}
	return fails
}
