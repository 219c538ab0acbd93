package timing

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/synth"
)

func chainCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	// a -> n1 -> n2 -> o : a pure chain with known arc count.
	src := "INPUT(a)\nOUTPUT(n2)\nn1 = NOT(a)\nn2 = NOT(n1)\n"
	c, err := benchfmt.ParseString(src, "chain", false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mcSTA runs the Monte-Carlo STA under context.Background().
func mcSTA(t testing.TB, m *Model, nSamples int, seed uint64, workers int) *STADist {
	t.Helper()
	res, err := NewMC(m).STA(context.Background(), nSamples, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mcCriticality runs the Monte-Carlo criticality under
// context.Background().
func mcCriticality(t testing.TB, m *Model, nSamples int, seed uint64, workers int) *Criticality {
	t.Helper()
	cr, err := NewMC(m).Criticality(context.Background(), nSamples, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestNewModelNominals(t *testing.T) {
	c := chainCircuit(t)
	p := DefaultParams()
	m := NewModel(c, p)
	if len(m.Nominal) != len(c.Arcs) {
		t.Fatalf("nominal count mismatch")
	}
	for i := range c.Arcs {
		to := &c.Gates[c.Arcs[i].To]
		if to.Type == circuit.Output {
			if m.Nominal[i] != p.PortDelay {
				t.Errorf("port arc nominal = %v", m.Nominal[i])
			}
		} else if m.Nominal[i] <= 0 {
			t.Errorf("arc %d nominal = %v", i, m.Nominal[i])
		}
	}
}

func TestNominalLoadAndFaninScaling(t *testing.T) {
	// g has fanout 2 (drives h and k): arcs into h and k see load scaling.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(h)
OUTPUT(k)
g = NAND(a, b)
h = NAND(g, a)
k = NAND(g, b)
w = NAND(a, b, g)
OUTPUT(w)
`
	c, err := benchfmt.ParseString(src, "load", false)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	m := NewModel(c, p)
	h, _ := c.GateByName("h")
	g, _ := c.GateByName("g")
	// Arc g->h: driver g has fanout 3 (h, k, w) -> two extra fanouts.
	want := p.UnitDelay * (1 + p.LoadFactor*2)
	got := m.Nominal[h.InArcs[0]] - p.WireDelay
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("loaded arc nominal = %v, want %v", got, want)
	}
	// Arc a->g: driver a fanout 3 (g, h, w)... check fanin scaling on w (3 inputs).
	w, _ := c.GateByName("w")
	aFan := len(c.Gates[c.Inputs[0]].Fanout)
	want = p.UnitDelay * (1 + p.FaninFactor*1) * (1 + p.LoadFactor*float64(aFan-1))
	got = m.Nominal[w.InArcs[0]] - p.WireDelay
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("3-input arc nominal = %v, want %v", got, want)
	}
	_ = g
}

func TestSampleInstancePositiveAndVaried(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	r := rng.New(10)
	in1 := m.SampleInstance(r)
	in2 := m.SampleInstance(r)
	diff := false
	for i := range in1.Delays {
		if in1.Delays[i] <= 0 {
			t.Fatalf("non-positive delay %v at arc %d", in1.Delays[i], i)
		}
		if in1.Delays[i] != in2.Delays[i] {
			diff = true
		}
	}
	if !diff {
		t.Errorf("two samples identical")
	}
}

func TestSampleInstanceSeededDeterministic(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 4)
	m := NewModel(c, DefaultParams())
	a := m.SampleInstanceSeeded(99, 3)
	b := m.SampleInstanceSeeded(99, 3)
	for i := range a.Delays {
		if a.Delays[i] != b.Delays[i] {
			t.Fatalf("seeded instance not deterministic at arc %d", i)
		}
	}
}

func TestGlobalCorrelation(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 4)
	m := NewModel(c, DefaultParams())
	// Empirical correlation between two arcs across instances should be
	// near the theoretical rho.
	const N = 4000
	a := make([]float64, N)
	b := make([]float64, N)
	for s := 0; s < N; s++ {
		in := m.SampleInstanceSeeded(1234, uint64(s))
		a[s] = in.Delays[0] / m.Nominal[0]
		b[s] = in.Delays[len(in.Delays)/2] / m.Nominal[len(in.Delays)/2]
	}
	rho := pearson(a, b)
	// The shared global factor implies rho = σg²/(σg²+σl²).
	g2, l2 := m.P.SigmaGlobal*m.P.SigmaGlobal, m.P.SigmaLocal*m.P.SigmaLocal
	want := g2 / (g2 + l2)
	if math.Abs(rho-want) > 0.06 {
		t.Errorf("empirical rho = %v, want ~%v", rho, want)
	}
}

func TestArrivalTimesChain(t *testing.T) {
	c := chainCircuit(t)
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	arr := m.ArrivalTimes(in)
	n2, _ := c.GateByName("n2")
	want := in.Delays[0] + in.Delays[1] // two chained NOT arcs
	// Arc order: arcs created per gate in order; find by structure.
	n1, _ := c.GateByName("n1")
	want = in.Delays[n1.InArcs[0]] + in.Delays[n2.InArcs[0]]
	if math.Abs(arr[n2.ID]-want) > 1e-12 {
		t.Errorf("chain arrival = %v, want %v", arr[n2.ID], want)
	}
	port := c.Outputs[0]
	if arr[port] <= arr[n2.ID] {
		t.Errorf("port arrival not after driver")
	}
}

func TestArrivalTimesIsMaxOverPaths(t *testing.T) {
	// Diamond: o = AND(slow, fast) where slow path has 2 gates.
	src := "INPUT(a)\nOUTPUT(o)\nf = BUF(a)\ns1 = NOT(a)\ns2 = NOT(s1)\no = AND(f, s2)\n"
	c, err := benchfmt.ParseString(src, "diamond", false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c, DefaultParams())
	in := m.NominalInstance()
	arr := m.ArrivalTimes(in)
	o, _ := c.GateByName("o")
	s2, _ := c.GateByName("s2")
	f, _ := c.GateByName("f")
	wantSlow := arr[s2.ID] + in.Delays[o.InArcs[1]]
	wantFast := arr[f.ID] + in.Delays[o.InArcs[0]]
	if arr[o.ID] != math.Max(wantSlow, wantFast) {
		t.Errorf("arrival = %v, want max(%v, %v)", arr[o.ID], wantSlow, wantFast)
	}
}

func TestMonteCarloSTA(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 4)
	m := NewModel(c, DefaultParams())
	res := mcSTA(t, m, 500, 77, 0)
	if len(res.Arrivals) != len(c.Outputs) {
		t.Fatalf("arrival count mismatch")
	}
	// Circuit delay must stochastically dominate every output arrival.
	cd := res.CircuitDelay.(*dist.Empirical)
	for i, a := range res.Arrivals {
		if cd.Mean() < a.Mean()-1e-9 {
			t.Errorf("circuit delay mean below output %d mean", i)
		}
		if cd.Quantile(1) < a.Quantile(1)-1e-9 {
			t.Errorf("circuit delay max below output %d max", i)
		}
	}
	// Critical probability is monotone nonincreasing in clk.
	prev := 1.0
	lo, hi := cd.Quantile(0), cd.Quantile(1)
	for clk := lo; clk <= hi; clk += (hi - lo) / 10 {
		p := res.CriticalProb(clk)
		if p > prev+1e-12 {
			t.Errorf("critical probability not monotone at clk=%v", clk)
		}
		prev = p
	}
}

func TestMonteCarloSTADeterministicAcrossWorkers(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 4)
	m := NewModel(c, DefaultParams())
	a := mcSTA(t, m, 300, 5, 1)
	b := mcSTA(t, m, 300, 5, 4)
	if a.CircuitDelay.Mean() != b.CircuitDelay.Mean() {
		t.Errorf("MC STA depends on worker count: %v vs %v", a.CircuitDelay.Mean(), b.CircuitDelay.Mean())
	}
}

func TestTimingLengthAndPathDelay(t *testing.T) {
	c := chainCircuit(t)
	m := NewModel(c, DefaultParams())
	n1, _ := c.GateByName("n1")
	n2, _ := c.GateByName("n2")
	port := &c.Gates[c.Outputs[0]]
	path := []circuit.ArcID{n1.InArcs[0], n2.InArcs[0], port.InArcs[0]}
	tl, err := NewMC(m).TimingLength(context.Background(), path, 800, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := m.Nominal[path[0]] + m.Nominal[path[1]] + m.Nominal[path[2]]
	if math.Abs(tl.Mean()-wantMean)/wantMean > 0.05 {
		t.Errorf("TL mean = %v, want ~%v", tl.Mean(), wantMean)
	}
	in := m.NominalInstance()
	if got := pathDelay(in, path); math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("pathDelay = %v, want %v", got, wantMean)
	}
}

// Property: arrival times are monotone in arc delays — increasing any
// arc delay never decreases any arrival time.
func TestArrivalMonotoneProperty(t *testing.T) {
	c, _ := synth.GenerateNamed("mini", 4)
	m := NewModel(c, DefaultParams())
	base := m.NominalInstance()
	baseArr := m.ArrivalTimes(base)
	f := func(arcIdx uint16, bump uint8) bool {
		arc := circuit.ArcID(int(arcIdx) % len(base.Delays))
		mod := withDefect(base, arc, 0.1+float64(bump)/50)
		arr := m.ArrivalTimes(mod)
		for i := range arr {
			if arr[i] < baseArr[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// pearson returns the Pearson correlation coefficient of xs and ys.
func pearson(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// withDefect returns a copy of in with size added to arc's delay: the
// single-defect model D_s applied to one die.
func withDefect(in *Instance, arc circuit.ArcID, size float64) *Instance {
	out := &Instance{Delays: append([]float64(nil), in.Delays...)}
	out.Delays[arc] += size
	return out
}
