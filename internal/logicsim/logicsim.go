// Package logicsim provides untimed logic simulation over the circuit
// substrate: scalar evaluation, 64-way bit-parallel evaluation (one
// test pattern per bit), two-vector transition simulation for delay
// tests, and the backward sensitized-arc tracing used by the diagnosis
// algorithm's cause-effect pruning step (Algorithm E.1, step 1).
package logicsim

import (
	"fmt"

	"repro/internal/circuit"
)

// Vector assigns one logic value per circuit input, indexed parallel to
// Circuit.Inputs.
type Vector []bool

// PatternPair is a two-vector delay test: V1 initializes the circuit,
// V2 launches the transitions that are captured at the cut-off period.
type PatternPair struct {
	V1, V2 Vector
}

// String renders the pair as "0101->0110".
func (p PatternPair) String() string {
	bit := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	buf := make([]byte, 0, len(p.V1)+len(p.V2)+2)
	for _, b := range p.V1 {
		buf = append(buf, bit(b))
	}
	buf = append(buf, '-', '>')
	for _, b := range p.V2 {
		buf = append(buf, bit(b))
	}
	return string(buf)
}

// Eval computes the settled logic value of every gate under the input
// assignment in (indexed parallel to c.Inputs). The returned slice is
// indexed by GateID.
func Eval(c *circuit.Circuit, in Vector) []bool {
	return EvalInto(nil, c, in)
}

// EvalInto is Eval writing into dst, reusing its backing array when it
// is large enough — the allocation-free form for hot simulation loops.
// It returns the filled slice (freshly allocated when dst lacks
// capacity); every element is overwritten, so dst's prior contents do
// not matter.
func EvalInto(dst []bool, c *circuit.Circuit, in Vector) []bool {
	if len(in) != len(c.Inputs) {
		panic(fmt.Sprintf("logicsim: vector has %d values for %d inputs", len(in), len(c.Inputs)))
	}
	if cap(dst) < len(c.Gates) {
		dst = make([]bool, len(c.Gates))
	}
	vals := dst[:len(c.Gates)]
	for i := range vals {
		vals[i] = false // match Eval's freshly-zeroed slice exactly
	}
	for i, g := range c.Inputs {
		vals[g] = in[i]
	}
	var sbuf [8]bool
	scratch := sbuf[:0]
	for _, gid := range c.Order {
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			continue
		}
		scratch = scratch[:0]
		for _, fi := range g.Fanin {
			scratch = append(scratch, vals[fi])
		}
		vals[gid] = g.Type.Eval(scratch)
	}
	return vals
}

// EvalWordsInto evaluates 64 patterns at once: in[i] packs the value
// of input i across 64 patterns (bit b = pattern b), and the result
// packs every gate's value the same way. It writes into dst, reusing
// its backing array when it is large enough — the allocation-free form
// for the word-parallel simulation loops (dictionary characterization,
// arc coverage). It returns the filled slice (freshly allocated only
// when dst lacks capacity); every element is overwritten, so dst's
// prior contents do not matter.
//
//ddd:hot
func EvalWordsInto(dst []uint64, c *circuit.Circuit, in []uint64) []uint64 {
	if len(in) != len(c.Inputs) {
		panic(fmt.Sprintf("logicsim: %d words for %d inputs", len(in), len(c.Inputs)))
	}
	if cap(dst) < len(c.Gates) {
		dst = make([]uint64, len(c.Gates))
	}
	vals := dst[:len(c.Gates)]
	for i := range vals {
		vals[i] = 0
	}
	for i, g := range c.Inputs {
		vals[g] = in[i]
	}
	var sbuf [8]uint64
	scratch := sbuf[:0]
	for _, gid := range c.Order {
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			continue
		}
		scratch = scratch[:0]
		for _, fi := range g.Fanin {
			scratch = append(scratch, vals[fi])
		}
		vals[gid] = g.Type.EvalWords(scratch)
	}
	return vals
}

// TailMask returns the mask selecting the n low pattern lanes of a
// word — the valid lanes of a ragged (sub-64) PackPatternPairsInto
// block.
func TailMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	if n <= 0 {
		return 0
	}
	return (uint64(1) << uint(n)) - 1
}

// Transition holds the two settled value assignments of a pattern pair.
type Transition struct {
	Init  []bool // gate values under V1
	Final []bool // gate values under V2
}

// SimulatePair runs two-vector transition simulation.
func SimulatePair(c *circuit.Circuit, p PatternPair) Transition {
	return Transition{Init: Eval(c, p.V1), Final: Eval(c, p.V2)}
}

// SensitizedArcs traces backward from primary output index outIdx and
// returns the arcs lying on statically sensitized transition paths to
// that output: an arc into pin k of gate g is sensitized when its
// driver has a transition and every other pin of g holds a
// non-controlling final value (XOR-type and single-input cells
// propagate unconditionally). This is the paper's "logically
// sensitized" relation used both for suspect pruning and for
// identifying Sen(v).
//
// The trace only enters a gate whose own settled value transitions, so
// every returned arc lies on a transition path ending at the output.
func SensitizedArcs(c *circuit.Circuit, tr Transition, outIdx int) circuit.ArcSet {
	arcs := c.NewArcSet()
	visited := c.NewGateSet()
	root := c.Outputs[outIdx]
	if tr.Init[root] == tr.Final[root] {
		return arcs // no transition observed at the output
	}
	var walk func(g circuit.GateID)
	walk = func(gid circuit.GateID) {
		if visited.Has(gid) {
			return
		}
		visited.Add(gid)
		g := &c.Gates[gid]
		ctrl, hasCtrl := g.Type.Controlling()
		for k, d := range g.Fanin {
			if tr.Init[d] == tr.Final[d] {
				continue // no transition arrives on this pin
			}
			if hasCtrl {
				ok := true
				for j, other := range g.Fanin {
					if j != k && tr.Final[other] == ctrl {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			arcs.Add(g.InArcs[k])
			walk(d)
		}
	}
	walk(root)
	return arcs
}
