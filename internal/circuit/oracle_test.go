package circuit_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/synth"
)

// netlist records a Builder's declarations, so that the same netlist
// can be fed to circuit.Builder and to refBuild.
type netlist struct {
	name    string
	gates   []decl // declaration order; an Input is declared by AddInput
	outputs []string
}

type decl struct {
	name  string
	typ   circuit.CellType
	fanin []string
}

// builder replays n's declarations into a circuit.Builder.
func (n *netlist) builder(t testing.TB) *circuit.Builder {
	t.Helper()
	b := circuit.NewBuilder(n.name)
	for _, d := range n.gates {
		var err error
		if d.typ == circuit.Input {
			err = b.AddInput(d.name)
		} else {
			err = b.AddGate(d.name, d.typ, d.fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range n.outputs {
		b.MarkOutput(o)
	}
	return b
}

// refBuild is the per-gate Build algorithm the flat layout replaced:
// scan conversion into new lists, a second name index, port gates,
// per-gate fan-in, arc and fan-out slices grown by append, and Kahn's
// algorithm over a sorted seed queue. It fills only the exported
// fields.
func refBuild(n *netlist, scanConvert bool) (*circuit.Circuit, error) {
	gates := n.gates
	var inputs []string
	for _, d := range n.gates {
		if d.typ == circuit.Input {
			inputs = append(inputs, d.name)
		}
	}
	outputs := append([]string(nil), n.outputs...)
	if scanConvert {
		gates = nil
		for _, d := range n.gates {
			if d.typ != circuit.DFF {
				gates = append(gates, d)
				continue
			}
			gates = append(gates, decl{name: d.name, typ: circuit.Input})
			inputs = append(inputs, d.name)
			outputs = append(outputs, d.fanin[0])
		}
	}
	index := make(map[string]int, len(gates))
	for i, g := range gates {
		index[g.name] = i
	}
	c := &circuit.Circuit{Name: n.name}
	for _, g := range gates {
		c.Gates = append(c.Gates, circuit.Gate{ID: circuit.GateID(len(c.Gates)), Name: g.name, Type: g.typ})
	}
	for _, name := range outputs {
		src, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("output %q is undeclared", name)
		}
		id := circuit.GateID(len(c.Gates))
		c.Gates = append(c.Gates, circuit.Gate{ID: id, Name: name + "$out", Type: circuit.Output, Fanin: []circuit.GateID{circuit.GateID(src)}})
		c.Outputs = append(c.Outputs, id)
	}
	for i, g := range gates {
		for _, ref := range g.fanin {
			j, ok := index[ref]
			if !ok {
				return nil, fmt.Errorf("gate %q references undeclared signal %q", g.name, ref)
			}
			c.Gates[i].Fanin = append(c.Gates[i].Fanin, circuit.GateID(j))
		}
	}
	for _, name := range inputs {
		c.Inputs = append(c.Inputs, circuit.GateID(index[name]))
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		g.InArcs = make([]circuit.ArcID, len(g.Fanin))
		for k, from := range g.Fanin {
			aid := circuit.ArcID(len(c.Arcs))
			c.Arcs = append(c.Arcs, circuit.Arc{ID: aid, From: from, To: g.ID, Pin: k})
			g.InArcs[k] = aid
			c.Gates[from].Fanout = append(c.Gates[from].Fanout, g.ID)
		}
	}
	indeg := make([]int, len(c.Gates))
	var ready []circuit.GateID
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
		if indeg[i] == 0 {
			ready = append(ready, circuit.GateID(i))
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for len(ready) > 0 {
		g := ready[0]
		ready = ready[1:]
		c.Order = append(c.Order, g)
		for _, fo := range c.Gates[g].Fanout {
			if indeg[fo]--; indeg[fo] == 0 {
				ready = append(ready, fo)
			}
		}
	}
	if len(c.Order) != len(c.Gates) {
		return nil, fmt.Errorf("cycle detected")
	}
	c.Levels = make([]int, len(c.Gates))
	for _, g := range c.Order {
		for _, fi := range c.Gates[g].Fanin {
			c.Levels[g] = max(c.Levels[g], c.Levels[fi]+1)
		}
	}
	return c, nil
}

// same reports the first difference between two circuits' exported
// fields, with nil and empty slices counting as equal.
func same(got, want *circuit.Circuit) error {
	if got.Name != want.Name {
		return fmt.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if len(got.Gates) != len(want.Gates) {
		return fmt.Errorf("%d gates, want %d", len(got.Gates), len(want.Gates))
	}
	for i := range got.Gates {
		g, w := &got.Gates[i], &want.Gates[i]
		if g.ID != w.ID || g.Name != w.Name || g.Type != w.Type ||
			!slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.InArcs, w.InArcs) || !slices.Equal(g.Fanout, w.Fanout) {
			return fmt.Errorf("gate %d is %+v, want %+v", i, *g, *w)
		}
	}
	for _, f := range []struct {
		name      string
		got, want []circuit.GateID
	}{{"Inputs", got.Inputs, want.Inputs}, {"Outputs", got.Outputs, want.Outputs}, {"Order", got.Order, want.Order}} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.Arcs, want.Arcs) {
		return fmt.Errorf("arcs differ")
	}
	if !slices.Equal(got.Levels, want.Levels) {
		return fmt.Errorf("levels %v, want %v", got.Levels, want.Levels)
	}
	return nil
}

// checkTables checks that c's flat tables are what every Gate views:
// the fan-in table in pin order with slot k being arc k, and the
// fan-out table in arc order.
func checkTables(c *circuit.Circuit) error {
	finOff, fin := c.FaninTable()
	foutOff, fout := c.FanoutTable()
	if len(finOff) != len(c.Gates)+1 || len(foutOff) != len(c.Gates)+1 || len(fin) != len(c.Arcs) || len(fout) != len(c.Arcs) {
		return fmt.Errorf("table sizes %d/%d/%d/%d for %d gates, %d arcs", len(finOff), len(foutOff), len(fin), len(fout), len(c.Gates), len(c.Arcs))
	}
	for g := range c.Gates {
		gate := &c.Gates[g]
		if !slices.Equal(fin[finOff[g]:finOff[g+1]], gate.Fanin) || !slices.Equal(fout[foutOff[g]:foutOff[g+1]], gate.Fanout) {
			return fmt.Errorf("gate %q: tables differ from Fanin/Fanout", gate.Name)
		}
		for k, a := range gate.InArcs {
			if int(a) != int(finOff[g])+k {
				return fmt.Errorf("gate %q pin %d: arc %d is not fan-in slot %d", gate.Name, k, a, int(finOff[g])+k)
			}
		}
	}
	return nil
}

// checkCapped appends to every gate's Fanin, InArcs and Fanout and
// checks that no other gate changed: each view must be
// capacity-capped, so that append copies instead of writing into the
// next gate's entries.
func checkCapped(c *circuit.Circuit) error {
	before := make([]circuit.Gate, len(c.Gates))
	for i, g := range c.Gates {
		before[i] = circuit.Gate{ID: g.ID, Name: g.Name, Type: g.Type,
			Fanin: slices.Clone(g.Fanin), Fanout: slices.Clone(g.Fanout), InArcs: slices.Clone(g.InArcs)}
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		_ = append(g.Fanin, -1)
		_ = append(g.Fanout, -1)
		_ = append(g.InArcs, -1)
	}
	for i := range c.Gates {
		g, w := &c.Gates[i], &before[i]
		if !slices.Equal(g.Fanin, w.Fanin) || !slices.Equal(g.Fanout, w.Fanout) || !slices.Equal(g.InArcs, w.InArcs) {
			return fmt.Errorf("gate %q changed by appends to other gates: %+v, was %+v", g.Name, *g, *w)
		}
	}
	return nil
}

// compareBuild builds n both ways and checks the flat layout against
// the reference, its tables and its capped views. It returns the
// built circuit.
func compareBuild(t *testing.T, n *netlist, scanConvert bool) *circuit.Circuit {
	t.Helper()
	got, err := n.builder(t).Build(scanConvert)
	if err != nil {
		t.Fatalf("%s: Build: %v", n.name, err)
	}
	want, err := refBuild(n, scanConvert)
	if err != nil {
		t.Fatalf("%s: reference build: %v", n.name, err)
	}
	if err := same(got, want); err != nil {
		t.Fatalf("%s: Build differs from the reference: %v", n.name, err)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	if err := checkTables(got); err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	if err := checkCapped(got); err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	return got
}

// synthNetlist recovers the declarations synth.Generate made for a
// circuit of profile p: its inputs, then one DFF per pseudo-primary
// input reading the matching pseudo-primary output's driver, then the
// logic gates, with the primary outputs marked.
func synthNetlist(c *circuit.Circuit, p synth.Profile) *netlist {
	n := &netlist{name: c.Name}
	for i := range c.Gates {
		g := &c.Gates[i]
		switch {
		case g.Type == circuit.Output:
		case i < p.PI:
			n.gates = append(n.gates, decl{name: g.Name, typ: circuit.Input})
		case i < p.PI+p.DFF:
			data := c.Gates[c.Outputs[p.PO+i-p.PI]].Fanin[0]
			n.gates = append(n.gates, decl{name: g.Name, typ: circuit.DFF, fanin: []string{c.Gates[data].Name}})
		default:
			d := decl{name: g.Name, typ: g.Type}
			for _, fi := range g.Fanin {
				d.fanin = append(d.fanin, c.Gates[fi].Name)
			}
			n.gates = append(n.gates, d)
		}
	}
	for _, o := range c.Outputs[:p.PO] {
		n.outputs = append(n.outputs, c.Gates[c.Gates[o].Fanin[0]].Name)
	}
	return n
}

// parseBench reads the .bench subset used here: INPUT(x), OUTPUT(x)
// and "y = F(a, b, ...)" lines.
func parseBench(t *testing.T, name, src string) *netlist {
	t.Helper()
	n := &netlist{name: name}
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		lhs, call, assign := strings.Cut(line, "=")
		if !assign {
			call = lhs
		}
		fn, args, ok := strings.Cut(strings.TrimSuffix(strings.TrimSpace(call), ")"), "(")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		var fanin []string
		for _, a := range strings.Split(args, ",") {
			fanin = append(fanin, strings.TrimSpace(a))
		}
		switch {
		case assign:
			typ, ok := circuit.ParseCellType(strings.TrimSpace(fn))
			if !ok {
				t.Fatalf("unknown cell %q", fn)
			}
			n.gates = append(n.gates, decl{name: strings.TrimSpace(lhs), typ: typ, fanin: fanin})
		case fn == "INPUT":
			n.gates = append(n.gates, decl{name: fanin[0], typ: circuit.Input})
		case fn == "OUTPUT":
			n.outputs = append(n.outputs, fanin[0])
		default:
			t.Fatalf("unknown statement %q", line)
		}
	}
	return n
}

// s27Bench is the ISCAS'89 s27 netlist: three flip-flops, so Build
// must scan-convert it.
const s27Bench = `
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

// c17Bench is the ISCAS'85 c17 netlist.
const c17Bench = `
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
OUTPUT(o22)
OUTPUT(o23)
n10 = NAND(i1, i3)
n11 = NAND(i3, i4)
n16 = NAND(i2, n11)
n19 = NAND(n11, i5)
o22 = NAND(n10, n16)
o23 = NAND(n16, n19)
`

// TestBuildMatchesReference checks the flat-table Build against the
// per-gate reference on every synth profile at both golden seeds, on
// c17, on the scan-converted s27 and on netlists whose outputs repeat.
func TestBuildMatchesReference(t *testing.T) {
	compareBuild(t, parseBench(t, "c17", c17Bench), false)
	compareBuild(t, parseBench(t, "s27", s27Bench), true)

	dup := parseBench(t, "c17dup", c17Bench+"OUTPUT(o22)\nOUTPUT(i3)\n")
	if c := compareBuild(t, dup, false); len(c.Outputs) != 4 {
		t.Errorf("c17dup: %d outputs, want 4", len(c.Outputs))
	}
	// s27 with G11 both a primary output and a flip-flop's data input.
	compareBuild(t, parseBench(t, "s27dup", s27Bench+"OUTPUT(G11)\n"), true)

	seeds := [2]uint64{2003, 7}
	for _, p := range synth.Profiles {
		if testing.Short() && p.Gates > 1000 {
			continue
		}
		for _, seed := range seeds {
			c, err := synth.Generate(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			n := synthNetlist(c, p)
			got := compareBuild(t, n, true)
			// The recovered declarations rebuild the generated circuit.
			if err := same(got, c); err != nil {
				t.Fatalf("%s@%d: recovered netlist builds a different circuit: %v", p.Name, seed, err)
			}
		}
	}
}

// TestBuildAllocsFlat checks that Build's allocation count does not
// grow with the circuit: its tables are a fixed number of flat arrays,
// not per-gate slices.
func TestBuildAllocsFlat(t *testing.T) {
	allocs := func(name string) float64 {
		p, _ := synth.ProfileByName(name)
		c, err := synth.Generate(p, 2003)
		if err != nil {
			t.Fatal(err)
		}
		b := synthNetlist(c, p).builder(t)
		return testing.AllocsPerRun(5, func() {
			if _, err := b.Build(true); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("s1196"), allocs("s15850")
	t.Logf("Build allocs: s1196 %.0f, s15850 %.0f", small, large)
	if large > small+4 {
		t.Errorf("Build allocates %.0f times on s15850, %.0f on s1196: allocations grow with the circuit", large, small)
	}
}
