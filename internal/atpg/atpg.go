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

// Cell classes of the implication kernel's cell table.
const (
	cellInput byte = iota // primary input: never evaluated
	cellCtrl              // AND/NAND/OR/NOR: has a controlling value
	cellXor               // XOR/XNOR: parity of the inputs
	cellBuf               // BUF/NOT/OUTPUT/DFF: the single input, inverted for NOT
	cellConst             // CONST0/CONST1
)

// cell is one gate's row of the cell table: its CellType's logic,
// decoded once so that evaluation runs no type switch.
type cell struct {
	class   byte
	cv      byte // controlling input value (cellCtrl)
	ctrlOut byte // output when some input is controlling (cellCtrl)
	ncOut   byte // output when every input is non-controlling (cellCtrl)
	inv     byte // 1 when the cell inverts: NAND, NOR, XNOR, NOT
	konst   byte // output value (cellConst)
}

// cellOf returns the cell table row of cell type t.
func cellOf(t circuit.CellType) cell {
	cl := cell{inv: b2t(t.Inverting())}
	if ctrl, ok := t.Controlling(); ok {
		cl.class = cellCtrl
		cl.cv = b2t(ctrl)
		cl.ctrlOut = b2t(ctrl != t.Inverting())
		cl.ncOut = cl.ctrlOut ^ 1
		return cl
	}
	switch t {
	case circuit.Input:
		cl.class = cellInput
	case circuit.Xor, circuit.Xnor:
		cl.class = cellXor
	case circuit.Buf, circuit.Not, circuit.Output, circuit.DFF:
		cl.class = cellBuf
	case circuit.Const0, circuit.Const1:
		cl.class = cellConst
		cl.konst = b2t(t == circuit.Const1)
	default:
		panic(fmt.Sprintf("atpg: no cell table row for %v", t))
	}
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
	// randomized backtrace choices. Only an attempt that hits the
	// backtrack budget leaves anything to retry: one that exhausts its
	// search space below the budget has proven the path untestable
	// under the criterion, since every decision tries both values.
	restarts = 3
)

// Generator produces path-delay tests for one circuit. A Generator
// holds scratch state and is not safe for concurrent use; create one
// per goroutine.
type Generator struct {
	c *circuit.Circuit

	// Flat circuit tables (DESIGN.md §18), the only view of the
	// netlist the implication kernel reads: CSR fan-in and fan-out
	// (gate i's fan-in is fin[finStart[i]:finStart[i+1]]) and the cell
	// table.
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
	work   []circuit.GateID
	choice *rand.Rand // nil = deterministic first-X-fanin backtrace
	// objs and rest are PathTest's objective lists, reused per call.
	objs, rest []objective
}

// NewGenerator returns a Generator for c.
func NewGenerator(c *circuit.Circuit) *Generator {
	n := len(c.Gates)
	g := &Generator{
		c:         c,
		finStart:  make([]int32, n+1),
		foStart:   make([]int32, n+1),
		cells:     make([]cell, n),
		stamp:     1,
		coneStack: make([]circuit.GateID, 0, n),
		trail:     make([]trailEntry, 0, 2*n),
	}
	for i := range c.Gates {
		gate := &c.Gates[i]
		g.fin = append(g.fin, gate.Fanin...)
		g.fo = append(g.fo, gate.Fanout...)
		g.finStart[i+1] = int32(len(g.fin))
		g.foStart[i+1] = int32(len(g.fo))
		g.cells[i] = cellOf(gate.Type)
	}
	g.work = make([]circuit.GateID, 0, len(g.fo))
	for f := 0; f < 2; f++ {
		g.vals[f] = bytes.Repeat([]byte{fX}, n)
		g.rel[f] = make([]uint32, n)
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
			if g.cells[gid].class != cellInput {
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
	case cellCtrl:
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
	case cellXor, cellBuf:
		out := cl.inv
		for _, fi := range fanin {
			v := vals[fi]
			if v == fX {
				return fX
			}
			out ^= v
		}
		return out
	case cellConst:
		return cl.konst
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
//ddd:hot
func (g *Generator) setInput(frame int, in circuit.GateID, v byte) {
	vals, rel, stamp := g.vals[frame], g.rel[frame], g.stamp
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
		ctrl, hasCtrl := gate.Type.Controlling()
		switch {
		case hasCtrl:
			cv := b2t(ctrl)
			// Side inputs: non-controlling in V2; steadily so in both
			// frames for (hazard-free) robust tests.
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				objs = append(objs, objective{g: fi, frame: 1, val: cv ^ 1})
				if robust {
					objs = append(objs, objective{g: fi, frame: 0, val: cv ^ 1})
				}
			}
		case gate.Type == circuit.Xor || gate.Type == circuit.Xnor:
			// Hold side inputs stable at 0 in both frames.
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				objs = append(objs, objective{g: fi, frame: 0, val: f0})
				objs = append(objs, objective{g: fi, frame: 1, val: f0})
			}
		case gate.Type == circuit.Not, gate.Type == circuit.Buf, gate.Type == circuit.Output:
			// no side inputs
		default:
			return nil, fmt.Errorf("atpg: unsupported on-path cell %v", gate.Type)
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
	rest, err := g.prepare(p, rising, robust)
	if err != nil {
		return logicsim.PatternPair{}, err
	}
	// Attempt 0 uses the deterministic backtrace; further attempts
	// randomize the X-fanin choice (drawn from r, so the overall
	// generation stays reproducible per seed). A failed search undoes
	// every decision it made, so each attempt starts from the direct
	// input constraints alone.
	solved := false
	budgetHit := false
	for attempt := 0; attempt <= restarts; attempt++ {
		choice := r
		if attempt == 0 {
			choice = nil
		}
		ok, backtracks := g.attempt(rest, choice)
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

// prepare starts a PathTest: it unassigns every input, restricts
// implication to the objectives' cones, applies the objectives that sit
// on inputs as direct assignments, and returns the rest, which the
// search must justify. It returns ErrUntestable when two direct
// assignments conflict.
func (g *Generator) prepare(p path.Path, rising, robust bool) ([]objective, error) {
	objs, err := g.pathObjectives(p, rising, robust)
	if err != nil {
		return nil, err
	}
	g.clear()
	g.restrict(objs)
	rest := g.rest[:0]
	for _, o := range objs {
		if g.cells[o.g].class != cellInput {
			rest = append(rest, o)
			continue
		}
		if prev := g.vals[o.frame][o.g]; prev != fX && prev != o.val {
			return nil, ErrUntestable
		}
		g.setInput(o.frame, o.g, o.val)
	}
	g.rest = rest
	return rest, nil
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
// were.
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
		g.setInput(open.frame, in, v)
		if g.search(objs, backtracks) {
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
		if cl.class == cellInput {
			return gid, val, true
		}
		// The value to pursue on the chosen fanin.
		need := val ^ cl.inv
		var target byte
		switch cl.class {
		case cellCtrl:
			if need == cl.cv {
				target = cl.cv // one controlling input suffices
			} else {
				target = cl.cv ^ 1 // all inputs must be non-controlling
			}
		case cellXor:
			target = f0 // arbitrary; parity resolved by other pins
		default: // NOT/BUF/Output
			target = need
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
