// Package atpg generates two-vector path-delay tests. Following the
// paper (Section G), tests are produced from *logic* sensitization
// conditions only — no timing is consulted during generation — using
// the standard robust and non-robust criteria:
//
//   - the launching input of the target path transitions between the
//     two vectors, and the transition propagates along the path;
//   - at every on-path gate with a controlling value, the side (off-
//     path) inputs hold the non-controlling value in the final vector
//     (non-robust), and additionally hold it steadily in both vectors
//     for robust tests (the hazard-free robust criterion, under which
//     the transition propagates statically through every on-path gate);
//   - XOR-family side inputs are held stable at 0 in both vectors, so
//     the gate passes the transition with a fixed polarity.
//
// Justification is a two-time-frame PODEM: objectives are justified by
// backtracing through X-valued gates to unassigned primary inputs,
// with chronological backtracking under a fixed backtrack budget.
package atpg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
)

// Errors returned by test generation.
var (
	// ErrUntestable means the search space was exhausted: the path has
	// no test under the requested sensitization criterion.
	ErrUntestable = errors.New("atpg: path untestable under the requested criterion")
	// ErrBudget means the backtrack budget ran out before a decision.
	ErrBudget = errors.New("atpg: backtrack budget exhausted")
)

// ternary logic values.
const (
	f0 byte = 0
	f1 byte = 1
	fX byte = 2
)

func b2t(b bool) byte {
	if b {
		return f1
	}
	return f0
}

// cell is one gate's row of the implication kernel's cell table: its
// cell type's row of the circuit's table, decoded once into ternary
// values so that evaluation runs no type switch.
type cell struct {
	class   circuit.CellClass
	cv      byte // controlling input value (controlled class)
	ctrlOut byte // output when some input is controlling (controlled class)
	ncOut   byte // output when every input is non-controlling (controlled class)
	inv     byte // 1 when the cell inverts: NAND, NOR, XNOR, NOT
}

// cellOf returns the cell table row of cell type t.
func cellOf(t circuit.CellType) cell {
	cl := cell{class: t.Class(), cv: b2t(t.Counted()), inv: b2t(t.Inverting())}
	cl.ctrlOut = cl.cv ^ cl.inv
	cl.ncOut = cl.ctrlOut ^ 1
	return cl
}

// objective is a required definite value at a gate output in a frame.
type objective struct {
	g     circuit.GateID
	frame int // 0 = V1, 1 = V2
	val   byte
}

// trailEntry is one value setInput overwrote: gate's value in frame
// was old.
type trailEntry struct {
	gate  circuit.GateID
	frame uint8
	old   byte
}

const (
	// backtrackLimit bounds the PODEM search of one attempt.
	backtrackLimit = 2000
	// restarts is the number of attempts after the first, each with
	// randomized backtrace choices. PathTest runs all of them after any
	// failed attempt 0, also one that exhausted its search space below
	// the backtrack budget, although such an attempt has already proven
	// the path untestable under the criterion (every decision tries
	// both values). They must keep running until the pattern fixed
	// point is moved on purpose: each draws its choices from the
	// caller's r, so skipping one changes every later draw and with it
	// the generated patterns.
	restarts = 3
)

// Generator produces path-delay tests for one circuit. A Generator
// holds scratch state and is not safe for concurrent use; create one
// per goroutine.
type Generator struct {
	c *circuit.Circuit

	// Flat circuit tables (DESIGN.md §18), the only view of the
	// netlist the implication kernel reads: the circuit's own CSR
	// fan-in and fan-out (gate i's fan-in is
	// fin[finStart[i]:finStart[i+1]]) and the cell table.
	finStart, foStart []int32
	fin, fo           []circuit.GateID
	cells             []cell

	// vals holds the 3-valued gate values per frame; an input's value
	// is its assignment. Outside setInput, every gate in a frame's
	// cone equals what simulate computes from the input values; gates
	// outside it are stale.
	vals       [2][]byte
	unassigned []byte // gate values with every input at X
	// rel marks each frame's cone: gate i is in frame f's cone when
	// rel[f][i] == stamp. restrict stamps the fan-in cones of the
	// current objectives, which are all PODEM ever reads; a fresh
	// Generator's cone is the whole circuit.
	rel   [2][]uint32
	stamp uint32
	// coneStack is restrict's DFS stack, preallocated at one slot per
	// gate: a gate is pushed at most once per frame and stamp.
	coneStack []circuit.GateID
	// trail lists every value setInput overwrote since clear, oldest
	// first; undo restores the values back to a mark. Preallocated at
	// two entries per gate, which refining implication never exceeds.
	trail []trailEntry
	// work is setInput's LIFO worklist of gates awaiting
	// re-evaluation, preallocated at one slot per fan-out edge, which
	// refining implication never exceeds.
	work []circuit.GateID
	// forbid is the objective table: bit v of forbid[f][i] is set when
	// value v of gate i in frame f falsifies an objective of the
	// current PathTest (both bits when two objectives disagree).
	// prepareSides marks the non-input objectives, rest, after
	// clearing the marks of the previous call's rest; every other
	// entry is 0.
	forbid [2][]byte
	choice *rand.Rand // nil = deterministic first-X-fanin backtrace
	// objs and rest are PathTest's objective lists, reused per call.
	objs, rest []objective
	// launchGate is the current path's launch input, and launchMark
	// the trail length before its assignment.
	launchGate circuit.GateID
	launchMark int
}

// NewGenerator returns a Generator for c.
func NewGenerator(c *circuit.Circuit) *Generator {
	n := len(c.Gates)
	g := &Generator{
		c:         c,
		cells:     make([]cell, n),
		stamp:     1,
		coneStack: make([]circuit.GateID, 0, n),
		trail:     make([]trailEntry, 0, 2*n),
	}
	g.finStart, g.fin = c.FaninTable()
	g.foStart, g.fo = c.FanoutTable()
	for i := range c.Gates {
		g.cells[i] = cellOf(c.Gates[i].Type)
	}
	g.work = make([]circuit.GateID, 0, len(g.fo))
	for f := 0; f < 2; f++ {
		g.vals[f] = bytes.Repeat([]byte{fX}, n)
		g.rel[f] = make([]uint32, n)
		g.forbid[f] = make([]byte, n)
		for i := range g.rel[f] {
			g.rel[f][i] = g.stamp
		}
	}
	g.simulate()
	g.unassigned = slices.Clone(g.vals[0])
	return g
}

// clear unassigns every input of both frames. Copying the all-X gate
// values restores the implication invariant without a simulation pass.
func (g *Generator) clear() {
	for f := 0; f < 2; f++ {
		copy(g.vals[f], g.unassigned)
	}
	g.trail = g.trail[:0]
}

// restrict makes each frame's cone the fan-in cone of that frame's
// objectives in objs. The cone is closed under fan-in: eval of a gate
// in it reads only gates in it, and backtrace, which walks from an
// objective to fan-ins, never leaves it. Bumping the stamp drops the
// previous cone without clearing rel; only when the stamp wraps are
// the marks reset.
//
//ddd:hot
func (g *Generator) restrict(objs []objective) {
	g.stamp++
	if g.stamp == 0 {
		for f := range g.rel {
			clear(g.rel[f])
		}
		g.stamp = 1
	}
	stack := g.coneStack[:0]
	for _, o := range objs {
		rel := g.rel[o.frame]
		if rel[o.g] == g.stamp {
			continue
		}
		rel[o.g] = g.stamp
		stack = append(stack, o.g)
		for len(stack) > 0 {
			gid := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, fi := range g.fin[g.finStart[gid]:g.finStart[gid+1]] {
				if rel[fi] != g.stamp {
					rel[fi] = g.stamp
					stack = append(stack, fi)
				}
			}
		}
	}
	g.coneStack = stack
}

// simulate refreshes every non-input gate value of both frames from
// the input values.
func (g *Generator) simulate() {
	for f := 0; f < 2; f++ {
		vals := g.vals[f]
		for _, gid := range g.c.Order {
			if g.cells[gid].class != circuit.ClassInput {
				vals[gid] = g.eval(gid, vals)
			}
		}
	}
}

// eval computes the 3-valued output of non-input gate gid from its
// fanin values in vals.
//
//ddd:hot
func (g *Generator) eval(gid circuit.GateID, vals []byte) byte {
	cl := &g.cells[gid]
	fanin := g.fin[g.finStart[gid]:g.finStart[gid+1]]
	switch cl.class {
	case circuit.ClassControlled:
		anyX := false
		for _, fi := range fanin {
			v := vals[fi]
			if v == cl.cv {
				return cl.ctrlOut
			}
			if v == fX {
				anyX = true
			}
		}
		if anyX {
			return fX
		}
		return cl.ncOut
	case circuit.ClassParity, circuit.ClassBuffer:
		out := cl.inv
		for _, fi := range fanin {
			v := vals[fi]
			if v == fX {
				return fX
			}
			out ^= v
		}
		return out
	}
	panic("atpg: eval on an input")
}

// setInput assigns v (f0, f1 or fX) to input gate in of frame and
// implies the change forward through the input's fan-out cone in that
// frame, as far as the frame's cone reaches. A LIFO worklist
// re-evaluates a gate after every change of any of its fanins, and
// propagation stops at every gate whose 3-valued output does not
// change and at every gate outside the cone; the netlist is acyclic
// and the cone closed under fan-in, so when the worklist empties every
// gate in the cone equals its simulate value, whatever the order.
// Every value it overwrites, the input's own included, goes onto the
// trail.
//
// When the input was unassigned, setInput stops at the first change
// that gives a gate a value its forbid entry marks, and returns false:
// the assignment falsifies an objective under any completion of the
// propagation. The values written so far are exact, but the cone holds
// a partial propagation; only the objective scan may read it before
// it is undone.
//
//ddd:hot
func (g *Generator) setInput(frame int, in circuit.GateID, v byte) bool {
	vals, rel, stamp, forbid := g.vals[frame], g.rel[frame], g.stamp, g.forbid[frame]
	// Assigning an unassigned input only refines X values: 3-valued
	// simulation is monotone, so a gate that is already definite keeps
	// its value and need not be re-evaluated, and every gate changes at
	// most once.
	refine := vals[in] == fX
	work := g.work[:0]
	for gid, nv := in, v; ; {
		if nv != vals[gid] {
			g.trail = append(g.trail, trailEntry{gate: gid, frame: uint8(frame), old: vals[gid]})
			vals[gid] = nv
			if refine && forbid[gid]>>nv&1 != 0 {
				return false
			}
			for _, fo := range g.fo[g.foStart[gid]:g.foStart[gid+1]] {
				if rel[fo] == stamp && (!refine || vals[fo] == fX) {
					work = append(work, fo)
				}
			}
		}
		if len(work) == 0 {
			break
		}
		gid = work[len(work)-1]
		work = work[:len(work)-1]
		nv = g.eval(gid, vals)
	}
	g.work = work
	return true
}

// undo restores every value setInput overwrote after the trail held
// mark entries, newest first, and truncates the trail to mark.
//
//ddd:hot
func (g *Generator) undo(mark int) {
	for i := len(g.trail) - 1; i >= mark; i-- {
		e := g.trail[i]
		g.vals[e.frame][e.gate] = e.old
	}
	g.trail = g.trail[:mark]
}

// pathObjectives derives the launch assignment and side-input
// objectives for path p with the given launch polarity and criterion,
// into g.objs.
func (g *Generator) pathObjectives(p path.Path, rising, robust bool) ([]objective, error) {
	c := g.c
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	objs := g.objs[:0]
	// Launch values at the path input.
	launch := c.Arcs[p.Arcs[0]].From
	v1, v2 := b2t(!rising), b2t(rising)
	objs = append(objs, objective{g: launch, frame: 0, val: v1}, objective{g: launch, frame: 1, val: v2})

	for _, aid := range p.Arcs {
		a := &c.Arcs[aid]
		gate := &c.Gates[a.To]
		cl := &g.cells[a.To]
		switch cl.class {
		case circuit.ClassControlled:
			// Side inputs: non-controlling in V2; steadily so in both
			// frames for (hazard-free) robust tests.
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				objs = append(objs, objective{g: fi, frame: 1, val: cl.cv ^ 1})
				if robust {
					objs = append(objs, objective{g: fi, frame: 0, val: cl.cv ^ 1})
				}
			}
		case circuit.ClassParity:
			// Hold side inputs stable at 0 in both frames.
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				objs = append(objs, objective{g: fi, frame: 0, val: f0})
				objs = append(objs, objective{g: fi, frame: 1, val: f0})
			}
		case circuit.ClassBuffer:
			if gate.Type.Sequential() {
				return nil, fmt.Errorf("atpg: unsupported on-path cell %v", gate.Type)
			}
			// no side inputs
		}
	}
	g.objs = objs
	return objs, nil
}

// PathTest generates a two-vector test for path p. rising selects the
// launch polarity at the path input; robust selects the sensitization
// criterion. Unconstrained inputs are filled randomly from r. The
// generated pair is re-verified with CheckPathTest before being
// returned.
func (g *Generator) PathTest(p path.Path, rising, robust bool, r *rand.Rand) (logicsim.PatternPair, error) {
	if err := g.prepare(p, rising, robust); err != nil {
		return logicsim.PatternPair{}, err
	}
	return g.solve(p, robust, r)
}

// solve runs the attempts of a prepared PathTest for p. Attempt 0 uses
// the deterministic backtrace; further attempts randomize the X-fanin
// choice (drawn from r, so the overall generation stays reproducible
// per seed). A failed search undoes every decision it made, so each
// attempt starts from the direct input constraints alone.
func (g *Generator) solve(p path.Path, robust bool, r *rand.Rand) (logicsim.PatternPair, error) {
	solved := false
	budgetHit := false
	for attempt := 0; attempt <= restarts; attempt++ {
		choice := r
		if attempt == 0 {
			choice = nil
		}
		ok, backtracks := g.attempt(g.rest, choice)
		if ok {
			solved = true
			break
		}
		if backtracks >= backtrackLimit {
			budgetHit = true
		}
	}
	if !solved {
		if budgetHit {
			return logicsim.PatternPair{}, ErrBudget
		}
		return logicsim.PatternPair{}, ErrUntestable
	}

	pair := g.extractPair(r)
	if err := CheckPathTest(g.c, p, pair, robust); err != nil {
		return logicsim.PatternPair{}, fmt.Errorf("atpg: internal: generated test fails verification: %w", err)
	}
	return pair, nil
}

// prepare starts a PathTest: prepareSides, then launch. The search
// must then justify rest.
func (g *Generator) prepare(p path.Path, rising, robust bool) error {
	if err := g.prepareSides(p, robust); err != nil {
		return err
	}
	return g.launch(rising)
}

// prepareSides does the part of a PathTest's setup that both launch
// polarities share: it unassigns every input, restricts implication
// to the objectives' cones, marks the objectives that sit on gates in
// the forbid table and keeps them in rest, and applies the side
// objectives that sit on inputs as direct assignments. It returns
// ErrUntestable when two of them conflict. A direct assignment that
// falsifies an objective stops its propagation; the search's first
// objective scan then fails at once, as it would under full
// propagation.
func (g *Generator) prepareSides(p path.Path, robust bool) error {
	// The launch objectives are objs[0:2], on an input, so the rest
	// and the cones do not depend on the polarity.
	objs, err := g.pathObjectives(p, true, robust)
	if err != nil {
		return err
	}
	for _, o := range g.rest {
		g.forbid[o.frame][o.g] = 0
	}
	g.clear()
	g.restrict(objs)
	rest := g.rest[:0]
	for _, o := range objs {
		if g.cells[o.g].class != circuit.ClassInput {
			rest = append(rest, o)
			g.forbid[o.frame][o.g] |= 1 << (o.val ^ 1)
		}
	}
	g.rest = rest
	g.launchGate = objs[0].g
	for _, o := range objs[2:] {
		if g.cells[o.g].class != circuit.ClassInput {
			continue
		}
		if prev := g.vals[o.frame][o.g]; prev != fX && prev != o.val {
			return ErrUntestable
		}
		g.setInput(o.frame, o.g, o.val)
	}
	g.launchMark = len(g.trail)
	return nil
}

// launch undoes everything after prepareSides and assigns the launch
// input's two values for the given polarity. It returns ErrUntestable
// when a side objective already holds the input at another value.
func (g *Generator) launch(rising bool) error {
	g.undo(g.launchMark)
	for f, v := range [2]byte{b2t(!rising), b2t(rising)} {
		if prev := g.vals[f][g.launchGate]; prev != fX && prev != v {
			return ErrUntestable
		}
		g.setInput(f, g.launchGate, v)
	}
	return nil
}

// attempt runs one PODEM search for objs, with backtrace choices drawn
// from choice (nil = first X fanin), and reports whether it succeeded
// and how many backtracks it spent. A failed attempt leaves the values
// as it found them.
func (g *Generator) attempt(objs []objective, choice *rand.Rand) (bool, int) {
	g.choice = choice
	backtracks := 0
	ok := g.search(objs, &backtracks)
	g.choice = nil
	return ok, backtracks
}

// search is the PODEM loop: check objectives, pick an X objective,
// backtrace to an input, branch. Each decision is implied with
// setInput and, when its subtree fails, undone by restoring the trail
// to the mark taken before it, so a false return leaves vals as they
// were. A decision that falsifies an objective fails without the
// child call: that call's objective scan would return false before it
// drew from choice or counted a backtrack.
func (g *Generator) search(objs []objective, backtracks *int) bool {
	var open *objective
	for i := range objs {
		o := &objs[i]
		got := g.vals[o.frame][o.g]
		if got == o.val {
			continue
		}
		if got != fX {
			return false // definite conflict
		}
		if open == nil {
			open = o
		}
	}
	if open == nil {
		return true
	}
	in, target, ok := g.backtrace(open.g, open.frame, open.val)
	if !ok {
		return false // objective unreachable: no X input controls it
	}
	mark := len(g.trail)
	for _, v := range [2]byte{target, target ^ 1} {
		if g.setInput(open.frame, in, v) && g.search(objs, backtracks) {
			return true
		}
		g.undo(mark)
		*backtracks++
		if *backtracks >= backtrackLimit {
			return false
		}
	}
	return false
}

// backtrace walks from an X-valued gate toward an unassigned input,
// choosing at each step a fanin that can move the output toward val.
func (g *Generator) backtrace(gid circuit.GateID, frame int, val byte) (circuit.GateID, byte, bool) {
	vals := g.vals[frame]
	for {
		cl := &g.cells[gid]
		if cl.class == circuit.ClassInput {
			return gid, val, true
		}
		// The value to pursue on the chosen fanin: the output value
		// before inversion (one controlling input suffices for the
		// controlling value, and every input must be non-controlling
		// for the other), or behind a parity cell an arbitrary 0,
		// whose parity the other pins resolve.
		target := val ^ cl.inv
		if cl.class == circuit.ClassParity {
			target = f0
		}
		// Choose an X-valued fanin: the first one, or a random one
		// during restarts.
		var pick circuit.GateID = -1
		nX := 0
		for _, fi := range g.fin[g.finStart[gid]:g.finStart[gid+1]] {
			if vals[fi] != fX {
				continue
			}
			nX++
			if pick < 0 {
				pick = fi
				if g.choice == nil {
					break
				}
			} else if g.choice.IntN(nX) == 0 {
				pick = fi
			}
		}
		if pick < 0 {
			return 0, 0, false
		}
		val = target
		gid = pick
	}
}

// extractPair converts the input assignment to concrete vectors,
// filling X positions randomly.
func (g *Generator) extractPair(r *rand.Rand) logicsim.PatternPair {
	n := len(g.c.Inputs)
	v1 := make(logicsim.Vector, n)
	v2 := make(logicsim.Vector, n)
	for i, in := range g.c.Inputs {
		a, b := g.vals[0][in], g.vals[1][in]
		if a == fX {
			a = b2t(r.IntN(2) == 1)
		}
		if b == fX {
			b = b2t(r.IntN(2) == 1)
		}
		v1[i] = a == f1
		v2[i] = b == f1
	}
	return logicsim.PatternPair{V1: v1, V2: v2}
}
