package timing

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/synth"
)

// Blocked-vs-scalar equivalence suite: the blocked kernels must
// reproduce the retained scalar path (SampleInstanceSeeded +
// ArrivalTimes) bit for bit, for every block width, on a real
// ISCAS'89 netlist and on randomized synthetic circuits.

// s27Bench is the ISCAS'89 s27 netlist, inline because the synthetic
// profile table has no entry this small.
const s27Bench = `
# s27 (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func s27Model(t testing.TB) *Model {
	t.Helper()
	c, err := benchfmt.ParseString(s27Bench, "s27", true)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(c, DefaultParams())
}

func synthModel(t testing.TB, profile string, seed uint64) *Model {
	t.Helper()
	c, err := synth.GenerateNamed(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.SigmaGlobal, p.SigmaLocal = 0.08, 0.12
	return NewModel(c, p)
}

// scalarSTA is the pre-blocked reference implementation of
// MC.STA, retained verbatim (single-threaded) so the blocked
// kernels have a fixed point to be compared against.
func scalarSTA(m *Model, nSamples int, seed uint64) (perOut [][]float64, delays []float64) {
	perOut = make([][]float64, len(m.C.Outputs))
	for i := range perOut {
		perOut[i] = make([]float64, nSamples)
	}
	delays = make([]float64, nSamples)
	for s := 0; s < nSamples; s++ {
		in := m.SampleInstanceSeeded(seed, uint64(s))
		arr := m.ArrivalTimes(in)
		worst := 0.0
		for i, o := range m.C.Outputs {
			t := arr[o]
			perOut[i][s] = t
			if t > worst {
				worst = t
			}
		}
		delays[s] = worst
	}
	return perOut, delays
}

// scalarCriticalityCounts is the pre-blocked criticality inner loop,
// retained as the reference: per-arc critical-path counts over
// nSamples instances.
func scalarCriticalityCounts(m *Model, nSamples int, seed uint64) []int64 {
	cnt := make([]int64, len(m.C.Arcs))
	for s := 0; s < nSamples; s++ {
		inst := m.SampleInstanceSeeded(seed, uint64(s))
		arr := m.ArrivalTimes(inst)
		worst := m.C.Outputs[0]
		for _, o := range m.C.Outputs[1:] {
			if arr[o] > arr[worst] {
				worst = o
			}
		}
		g := worst
		for len(m.C.Gates[g].Fanin) > 0 {
			gate := &m.C.Gates[g]
			bestPin := 0
			bestT := arr[gate.Fanin[0]] + inst.Delays[gate.InArcs[0]]
			for k := 1; k < len(gate.Fanin); k++ {
				if t := arr[gate.Fanin[k]] + inst.Delays[gate.InArcs[k]]; t > bestT {
					bestT = t
					bestPin = k
				}
			}
			cnt[gate.InArcs[bestPin]]++
			g = gate.Fanin[bestPin]
		}
	}
	return cnt
}

// pathDelay is the scalar reference for MC.TimingLength: the fixed
// timing length of a path (a sequence of arcs) on an instance.
func pathDelay(in *Instance, arcs []circuit.ArcID) float64 {
	t := 0.0
	for _, a := range arcs {
		t += in.Delays[a]
	}
	return t
}

// sameSamples reports whether d is the Monte-Carlo distribution of
// exactly the samples xs: every sorted sample equal, in any order.
func sameSamples(xs []float64, d dist.Distribution) bool {
	return reflect.DeepEqual(dist.NewEmpirical(xs), d)
}

// checkBlockedSTA compares blocked STA with the scalar reference for
// one (model, block, workers) configuration.
func checkBlockedSTA(t *testing.T, m *Model, nSamples int, seed uint64, block, workers int) {
	t.Helper()
	refOut, refDelays := scalarSTA(m, nSamples, seed)
	res, err := m.staBlocked(context.Background(), nSamples, seed, workers, block)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSamples(refDelays, res.CircuitDelay) {
		t.Fatalf("block=%d workers=%d: circuit delay samples diverge from the scalar reference", block, workers)
	}
	for o := range refOut {
		if !sameSamples(refOut[o], res.Arrivals[o]) {
			t.Fatalf("block=%d workers=%d output %d: arrival samples diverge from the scalar reference", block, workers, o)
		}
	}
}

// TestBlockedSTAMatchesScalar sweeps block widths, including widths
// that do not divide the sample count and one larger than it, on s27
// and on randomized synthetic circuits.
func TestBlockedSTAMatchesScalar(t *testing.T) {
	const nSamples = 53
	models := map[string]*Model{
		"s27":    s27Model(t),
		"mini-1": synthModel(t, "mini", 1),
		"mini-9": synthModel(t, "mini", 9),
		"small":  synthModel(t, "small", 4),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			for _, block := range []int{1, 3, 8, 64, nSamples + 1} {
				for _, workers := range []int{1, 4} {
					checkBlockedSTA(t, m, nSamples, 17, block, workers)
				}
			}
		})
	}
}

// TestBlockedCriticalityMatchesScalar compares the blocked backtrace
// counts (via the probabilities, which are count/nSamples with exact
// integer numerators) against the scalar reference.
func TestBlockedCriticalityMatchesScalar(t *testing.T) {
	for name, m := range map[string]*Model{
		"s27":   s27Model(t),
		"small": synthModel(t, "small", 4),
	} {
		t.Run(name, func(t *testing.T) {
			const nSamples = 41
			want := scalarCriticalityCounts(m, nSamples, 23)
			for _, workers := range []int{1, 3} {
				cr := mcCriticality(t, m, nSamples, 23, workers)
				for i, w := range want {
					got := cr.Prob[i] * float64(nSamples)
					if math.Round(got) != float64(w) || math.Abs(got-float64(w)) > 1e-9 {
						t.Fatalf("workers=%d arc %d: count %v, want %d", workers, i, got, w)
					}
				}
			}
		})
	}
}

// TestTimingLengthCtxMatchesScalar pins MC.TimingLength to the scalar
// pathDelay reference.
func TestTimingLengthCtxMatchesScalar(t *testing.T) {
	m := synthModel(t, "small", 4)
	// A pseudo-path of spread arcs is enough: TimingLength sums
	// whatever arcs it is given.
	arcs := make([]circuit.ArcID, 12)
	for i := range arcs {
		arcs[i] = circuit.ArcID(i * len(m.C.Arcs) / len(arcs))
	}
	const nSamples = 37
	ref := make([]float64, nSamples)
	for s := 0; s < nSamples; s++ {
		ref[s] = pathDelay(m.SampleInstanceSeeded(19, uint64(s)), arcs)
	}
	for _, workers := range []int{1, 4} {
		tl, err := NewMC(m).TimingLength(context.Background(), arcs, nSamples, 19, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSamples(ref, tl) {
			t.Fatalf("workers=%d: timing length samples diverge from the scalar reference", workers)
		}
	}
}

// TestBlockedSTACancellation: a pre-cancelled context yields (nil, err)
// from every blocked entry point.
func TestBlockedSTACancellation(t *testing.T) {
	m := synthModel(t, "mini", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mc := NewMC(m)
	if res, err := mc.STA(ctx, 100, 7, 2); err == nil || res != nil {
		t.Fatalf("STA: res=%v err=%v, want nil result and error", res, err)
	}
	if cr, err := mc.Criticality(ctx, 100, 7, 2); err == nil || cr != nil {
		t.Fatalf("criticality: res=%v err=%v, want nil result and error", cr, err)
	}
	if tl, err := mc.TimingLength(ctx, []circuit.ArcID{0}, 100, 7, 2); err == nil || tl != nil {
		t.Fatalf("timing length: res=%v err=%v, want nil result and error", tl, err)
	}
}

// FuzzBlockedSTA fuzzes the block width (and sample count) against the
// scalar reference: any block >= 1 must be bit-exact.
func FuzzBlockedSTA(f *testing.F) {
	m := synthModel(f, "mini", 3)
	f.Add(uint8(1), uint8(10))
	f.Add(uint8(3), uint8(10))
	f.Add(uint8(8), uint8(10))
	f.Add(uint8(64), uint8(17))
	f.Add(uint8(11), uint8(10)) // block > nSamples
	f.Fuzz(func(t *testing.T, blockRaw, nRaw uint8) {
		block := int(blockRaw)
		if block < 1 {
			block = 1
		}
		nSamples := int(nRaw)%32 + 1
		checkBlockedSTA(t, m, nSamples, 29, block, 2)
	})
}

// TestSTAAllocBudget asserts the steady-state allocation count of the
// blocked STA is independent of the sample count: quadrupling the
// samples must not grow allocations beyond a small pool-miss slack.
func TestSTAAllocBudget(t *testing.T) {
	m := synthModel(t, "small", 4)
	mc, ctx := NewMC(m), context.Background()
	if _, err := mc.STA(ctx, 64, 7, 1); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	alloc := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := mc.STA(ctx, n, 7, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a256, a1024 := alloc(256), alloc(1024)
	// Budget: result assembly is O(outputs) allocations; growth with
	// sample count must stay within pool-miss noise.
	if a1024 > a256+32 {
		t.Fatalf("allocs grow with samples: %v @256 vs %v @1024", a256, a1024)
	}
	if limit := float64(4*len(m.C.Outputs) + 64); a1024 > limit {
		t.Fatalf("allocs/op = %v, want <= %v (O(outputs), not O(samples))", a1024, limit)
	}
}
