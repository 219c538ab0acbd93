package circuit

import "fmt"

// Check validates structural invariants of a built circuit. Builders
// guarantee these by construction; Check exists so that tests,
// generators, and parsers can assert integrity after transformation.
func (c *Circuit) Check() error {
	if len(c.Inputs) == 0 {
		return fmt.Errorf("circuit %q: no inputs", c.Name)
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("circuit %q: no outputs", c.Name)
	}
	attached := make([]bool, len(c.Arcs))
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.ID != GateID(i) {
			return fmt.Errorf("gate %d has ID %d", i, g.ID)
		}
		n := len(g.Fanin)
		if n < g.Type.MinFanin() || (g.Type.MaxFanin() >= 0 && n > g.Type.MaxFanin()) {
			return fmt.Errorf("gate %q (%v) has illegal fan-in %d", g.Name, g.Type, n)
		}
		if len(g.InArcs) != n {
			return fmt.Errorf("gate %q: %d in-arcs for %d fan-ins", g.Name, len(g.InArcs), n)
		}
		for k, a := range g.InArcs {
			if a < 0 || int(a) >= len(c.Arcs) {
				return fmt.Errorf("gate %q pin %d: arc id %d out of range", g.Name, k, a)
			}
			if attached[a] {
				return fmt.Errorf("arc %d attached to more than one input pin", a)
			}
			attached[a] = true
			arc := c.Arcs[a]
			if arc.To != g.ID || arc.Pin != k || arc.From != g.Fanin[k] {
				return fmt.Errorf("gate %q pin %d: inconsistent arc %+v", g.Name, k, arc)
			}
		}
		if g.Type.Sequential() {
			return fmt.Errorf("gate %q: DFF survives in a built circuit; scan conversion required", g.Name)
		}
	}
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if a.ID != ArcID(i) {
			return fmt.Errorf("arc %d has ID %d", i, a.ID)
		}
		if a.From < 0 || int(a.From) >= len(c.Gates) || a.To < 0 || int(a.To) >= len(c.Gates) {
			return fmt.Errorf("arc %d endpoints out of range: %+v", i, a)
		}
		if !attached[i] {
			return fmt.Errorf("dangling arc %d (%+v): not attached to any input pin", i, *a)
		}
	}
	if len(c.Order) != len(c.Gates) {
		return fmt.Errorf("order covers %d of %d gates", len(c.Order), len(c.Gates))
	}
	// Topological property: every gate appears after all its fan-ins.
	pos := make([]int, len(c.Gates))
	for p, g := range c.Order {
		pos[g] = p
	}
	for i := range c.Gates {
		for _, fi := range c.Gates[i].Fanin {
			if pos[fi] >= pos[i] {
				return fmt.Errorf("order violates precedence: %q before its fan-in %q",
					c.Gates[i].Name, c.Gates[fi].Name)
			}
		}
	}
	for _, in := range c.Inputs {
		if c.Gates[in].Type != Input {
			return fmt.Errorf("input list contains non-Input gate %q", c.Gates[in].Name)
		}
	}
	for _, out := range c.Outputs {
		if c.Gates[out].Type != Output {
			return fmt.Errorf("output list contains non-Output gate %q", c.Gates[out].Name)
		}
	}
	// Each gate's Fanout lists, in arc order, the reader of every arc
	// leaving it; pos now counts each gate's out-arcs.
	clear(pos)
	for i := range c.Arcs {
		a := &c.Arcs[i]
		fo := c.Gates[a.From].Fanout
		if k := pos[a.From]; k >= len(fo) || fo[k] != a.To {
			return fmt.Errorf("gate %q: fan-out does not list arc %d's reader %q in arc order", c.Gates[a.From].Name, i, c.Gates[a.To].Name)
		}
		pos[a.From]++
	}
	for i := range c.Gates {
		if g := &c.Gates[i]; len(g.Fanout) != pos[i] {
			return fmt.Errorf("gate %q: %d fan-outs for %d out-arcs", g.Name, len(g.Fanout), pos[i])
		}
	}
	// Arcs are numbered in (gate, pin) order, so that slot k of the
	// flat fan-in table (FaninTable) is arc k.
	next := ArcID(0)
	for i := range c.Gates {
		for k, a := range c.Gates[i].InArcs {
			if a != next {
				return fmt.Errorf("gate %q pin %d: arc %d, want %d in (gate, pin) order", c.Gates[i].Name, k, a, next)
			}
			next++
		}
	}
	return nil
}

// Stats summarizes a circuit's size and shape.
type Stats struct {
	Gates   int // all gates including port gates
	Logic   int // gates excluding Input/Output port gates
	Arcs    int
	Inputs  int
	Outputs int
	Depth   int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Gates:   len(c.Gates),
		Arcs:    len(c.Arcs),
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Depth:   c.Depth(),
	}
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input, Output:
		default:
			s.Logic++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("gates=%d logic=%d arcs=%d PI=%d PO=%d depth=%d",
		s.Gates, s.Logic, s.Arcs, s.Inputs, s.Outputs, s.Depth)
}
