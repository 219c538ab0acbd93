package circuit

// GateSet is a dense membership set over gates.
type GateSet []bool

// NewGateSet returns an empty set sized for circuit c.
func (c *Circuit) NewGateSet() GateSet { return make(GateSet, len(c.Gates)) }

// Add inserts a gate.
func (s GateSet) Add(id GateID) { s[id] = true }

// Has reports membership.
func (s GateSet) Has(id GateID) bool { return s[id] }

// ArcSet is a dense membership set over arcs.
type ArcSet []bool

// NewArcSet returns an empty set sized for circuit c.
func (c *Circuit) NewArcSet() ArcSet { return make(ArcSet, len(c.Arcs)) }

// Add inserts an arc.
func (s ArcSet) Add(id ArcID) { s[id] = true }

// Has reports membership.
func (s ArcSet) Has(id ArcID) bool { return s[id] }

// IDs returns the member arc IDs in ascending order.
func (s ArcSet) IDs() []ArcID {
	var ids []ArcID
	for i, v := range s {
		if v {
			ids = append(ids, ArcID(i))
		}
	}
	return ids
}

// FaninCone returns the set of gates in the transitive fan-in of the
// given roots (roots included).
func (c *Circuit) FaninCone(roots ...GateID) GateSet {
	seen := c.NewGateSet()
	stack := append([]GateID(nil), roots...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
		stack = append(stack, c.Gates[g].Fanin...)
	}
	return seen
}

// FanoutCone returns the set of gates in the transitive fan-out of the
// given roots (roots included).
func (c *Circuit) FanoutCone(roots ...GateID) GateSet {
	seen := c.NewGateSet()
	stack := append([]GateID(nil), roots...)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
		stack = append(stack, c.Gates[g].Fanout...)
	}
	return seen
}

// FanoutConeOrder returns the gates in the transitive fan-out of g (g
// included) in topological order; g comes first.
func (c *Circuit) FanoutConeOrder(g GateID) []GateID {
	cone := c.FanoutCone(g)
	var out []GateID
	for _, h := range c.Order {
		if cone.Has(h) {
			out = append(out, h)
		}
	}
	return out
}

// OutputsReachedFrom returns the indices (into c.Outputs) of outputs in
// the transitive fan-out of gate g.
func (c *Circuit) OutputsReachedFrom(g GateID) []int {
	cone := c.FanoutCone(g)
	var out []int
	for i, o := range c.Outputs {
		if cone.Has(o) {
			out = append(out, i)
		}
	}
	return out
}
