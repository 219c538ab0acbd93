// Package path provides path objects over the circuit DAG and K-longest
// path enumeration, both globally and through a designated fault site.
// The paper's pattern-generation methodology (Sections G, H-4) selects
// the "longest" paths through the injected fault site and targets them
// with path-delay tests; this package is that selector.
//
// Ranking uses nominal (mean) arc delays. Under the model's
// multiplicative global/local variation, a path's delay quantiles are
// monotone in its nominal length to first order, so nominal ranking
// coincides with the statistical ranking of [17] for this delay model;
// exact statistical timing lengths TL(p) can be attached afterwards via
// timing.Engine.TimingLengths.
package path

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// Path is an input-to-output path: an ordered arc sequence where each
// arc's From gate is the previous arc's To gate.
type Path struct {
	Arcs    []circuit.ArcID
	Nominal float64 // sum of nominal arc delays
}

// Gates returns the gate sequence visited by the path, starting at the
// launching input and ending at the output port.
func (p Path) Gates(c *circuit.Circuit) []circuit.GateID {
	if len(p.Arcs) == 0 {
		return nil
	}
	gs := make([]circuit.GateID, 0, len(p.Arcs)+1)
	gs = append(gs, c.Arcs[p.Arcs[0]].From)
	for _, a := range p.Arcs {
		gs = append(gs, c.Arcs[a].To)
	}
	return gs
}

// Contains reports whether the path traverses arc a.
func (p Path) Contains(a circuit.ArcID) bool {
	for _, x := range p.Arcs {
		if x == a {
			return true
		}
	}
	return false
}

// Validate checks structural well-formedness: contiguity, an Input at
// the start, and an Output port at the end.
func (p Path) Validate(c *circuit.Circuit) error {
	if len(p.Arcs) == 0 {
		return fmt.Errorf("path: empty")
	}
	first := c.Arcs[p.Arcs[0]]
	if c.Gates[first.From].Type != circuit.Input {
		return fmt.Errorf("path: starts at %v, not an input", c.Gates[first.From].Name)
	}
	for i := 1; i < len(p.Arcs); i++ {
		if c.Arcs[p.Arcs[i]].From != c.Arcs[p.Arcs[i-1]].To {
			return fmt.Errorf("path: arc %d discontinuous", i)
		}
	}
	last := c.Arcs[p.Arcs[len(p.Arcs)-1]]
	if c.Gates[last.To].Type != circuit.Output {
		return fmt.Errorf("path: ends at %v, not an output port", c.Gates[last.To].Name)
	}
	return nil
}

// String renders the path as a gate-name chain.
func (p Path) String(c *circuit.Circuit) string {
	gs := p.Gates(c)
	s := ""
	for i, g := range gs {
		if i > 0 {
			s += " -> "
		}
		s += c.Gates[g].Name
	}
	return fmt.Sprintf("%s (%.3f)", s, p.Nominal)
}

// entry is one partial path in the per-gate top-K DP tables. Parent
// pointers allow reconstruction without storing arc slices per entry.
type entry struct {
	delay  float64
	arc    circuit.ArcID  // arc taken to reach/leave this gate (-1 at roots)
	parent circuit.GateID // gate the arc connects to (-1 at roots)
	pidx   int32          // entry index at the parent gate
}

// topK merges candidate entries, keeping the k largest by delay with
// deterministic tie-breaking on (arc, pidx).
func topK(es []entry, k int) []entry {
	sort.Slice(es, func(i, j int) bool {
		if es[i].delay > es[j].delay {
			return true
		}
		if es[i].delay < es[j].delay {
			return false
		}
		if es[i].arc != es[j].arc {
			return es[i].arc < es[j].arc
		}
		return es[i].pidx < es[j].pidx
	})
	if len(es) > k {
		es = es[:k]
	}
	return es
}

// prefixTables computes, for every gate in restrict (nil = all gates),
// the top-k input-to-gate partial paths by nominal delay.
func prefixTables(c *circuit.Circuit, nominal []float64, k int, restrict circuit.GateSet) [][]entry {
	tab := make([][]entry, len(c.Gates))
	for _, gid := range c.Order {
		if restrict != nil && !restrict.Has(gid) {
			continue
		}
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			tab[gid] = []entry{{delay: 0, arc: -1, parent: -1}}
			continue
		}
		var cands []entry
		for kk, fi := range g.Fanin {
			a := g.InArcs[kk]
			for pi, pe := range tab[fi] {
				cands = append(cands, entry{
					delay:  pe.delay + nominal[a],
					arc:    a,
					parent: fi,
					pidx:   int32(pi),
				})
			}
		}
		tab[gid] = topK(cands, k)
	}
	return tab
}

// suffixTables computes, for every gate in restrict (nil = all), the
// top-k gate-to-output partial paths.
func suffixTables(c *circuit.Circuit, nominal []float64, k int, restrict circuit.GateSet) [][]entry {
	tab := make([][]entry, len(c.Gates))
	for i := len(c.Order) - 1; i >= 0; i-- {
		gid := c.Order[i]
		if restrict != nil && !restrict.Has(gid) {
			continue
		}
		g := &c.Gates[gid]
		if g.Type == circuit.Output {
			tab[gid] = []entry{{delay: 0, arc: -1, parent: -1}}
			continue
		}
		var cands []entry
		for _, ho := range g.Fanout {
			h := &c.Gates[ho]
			for kk, fi := range h.Fanin {
				if fi != gid {
					continue
				}
				a := h.InArcs[kk]
				for si, se := range tab[ho] {
					cands = append(cands, entry{
						delay:  se.delay + nominal[a],
						arc:    a,
						parent: ho,
						pidx:   int32(si),
					})
				}
			}
		}
		tab[gid] = topK(cands, k)
	}
	return tab
}

// reconstructPrefix walks prefix parent pointers back to the input,
// returning arcs in input-to-gate order.
func reconstructPrefix(tab [][]entry, g circuit.GateID, idx int) []circuit.ArcID {
	var rev []circuit.ArcID
	for {
		e := tab[g][idx]
		if e.arc < 0 {
			break
		}
		rev = append(rev, e.arc)
		g, idx = e.parent, int(e.pidx)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// reconstructSuffix walks suffix parent pointers forward to the output.
func reconstructSuffix(tab [][]entry, g circuit.GateID, idx int) []circuit.ArcID {
	var arcs []circuit.ArcID
	for {
		e := tab[g][idx]
		if e.arc < 0 {
			break
		}
		arcs = append(arcs, e.arc)
		g, idx = e.parent, int(e.pidx)
	}
	return arcs
}

// KLongest returns the k longest input-to-output paths of the circuit
// by nominal delay, longest first.
func KLongest(c *circuit.Circuit, nominal []float64, k int) []Path {
	if k < 1 {
		return nil
	}
	pre := prefixTables(c, nominal, k, nil)
	type fin struct {
		delay float64
		g     circuit.GateID
		idx   int
	}
	var fins []fin
	for _, o := range c.Outputs {
		for i, e := range pre[o] {
			fins = append(fins, fin{delay: e.delay, g: o, idx: i})
		}
	}
	sort.Slice(fins, func(i, j int) bool {
		if fins[i].delay > fins[j].delay {
			return true
		}
		if fins[i].delay < fins[j].delay {
			return false
		}
		if fins[i].g != fins[j].g {
			return fins[i].g < fins[j].g
		}
		return fins[i].idx < fins[j].idx
	})
	if len(fins) > k {
		fins = fins[:k]
	}
	out := make([]Path, 0, len(fins))
	for _, f := range fins {
		out = append(out, Path{Arcs: reconstructPrefix(pre, f.g, f.idx), Nominal: f.delay})
	}
	return out
}

// KLongestThrough returns the k longest paths that traverse arc site,
// longest first. Tables are restricted to the site's fan-in and
// fan-out cones, so the cost scales with the cones rather than the
// whole circuit.
func KLongestThrough(c *circuit.Circuit, nominal []float64, site circuit.ArcID, k int) []Path {
	if k < 1 {
		return nil
	}
	a := c.Arcs[site]
	preCone := c.FaninCone(a.From)
	sufCone := c.FanoutCone(a.To)
	pre := prefixTables(c, nominal, k, preCone)
	suf := suffixTables(c, nominal, k, sufCone)

	type combo struct {
		delay  float64
		pi, si int
	}
	var combos []combo
	for pi, pe := range pre[a.From] {
		for si, se := range suf[a.To] {
			combos = append(combos, combo{delay: pe.delay + nominal[site] + se.delay, pi: pi, si: si})
		}
	}
	sort.Slice(combos, func(i, j int) bool {
		if combos[i].delay > combos[j].delay {
			return true
		}
		if combos[i].delay < combos[j].delay {
			return false
		}
		if combos[i].pi != combos[j].pi {
			return combos[i].pi < combos[j].pi
		}
		return combos[i].si < combos[j].si
	})
	if len(combos) > k {
		combos = combos[:k]
	}
	out := make([]Path, 0, len(combos))
	for _, cb := range combos {
		arcs := reconstructPrefix(pre, a.From, cb.pi)
		arcs = append(arcs, site)
		arcs = append(arcs, reconstructSuffix(suf, a.To, cb.si)...)
		out = append(out, Path{Arcs: arcs, Nominal: cb.delay})
	}
	return out
}
