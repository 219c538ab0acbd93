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
// with chronological backtracking under a configurable budget.
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

// evalT computes the 3-valued output of a cell of type t whose input
// pins are driven by gates fanin, reading their values from vals.
func evalT(t circuit.CellType, fanin []circuit.GateID, vals []byte) byte {
	ctrl, hasCtrl := t.Controlling()
	if hasCtrl {
		cv := b2t(ctrl)
		anyX := false
		for _, fi := range fanin {
			v := vals[fi]
			if v == cv {
				return b2t(ctrl != t.Inverting())
			}
			if v == fX {
				anyX = true
			}
		}
		if anyX {
			return fX
		}
		return b2t(ctrl == t.Inverting())
	}
	switch t {
	case circuit.Buf, circuit.Output, circuit.DFF:
		return vals[fanin[0]]
	case circuit.Not:
		if v := vals[fanin[0]]; v != fX {
			return v ^ 1
		}
		return fX
	case circuit.Xor, circuit.Xnor:
		out := byte(0)
		for _, fi := range fanin {
			v := vals[fi]
			if v == fX {
				return fX
			}
			out ^= v
		}
		if t == circuit.Xnor {
			out ^= 1
		}
		return out
	case circuit.Const0:
		return f0
	case circuit.Const1:
		return f1
	default:
		panic(fmt.Sprintf("atpg: evalT on %v", t))
	}
}

// objective is a required definite value at a gate output in a frame.
type objective struct {
	g     circuit.GateID
	frame int // 0 = V1, 1 = V2
	val   byte
}

// Generator produces path-delay tests for one circuit. A Generator
// holds scratch state and is not safe for concurrent use; create one
// per goroutine.
type Generator struct {
	c *circuit.Circuit
	// BacktrackLimit bounds the PODEM search per call (default 2000).
	BacktrackLimit int
	// Restarts retries the search with randomized backtrace choices
	// when the deterministic first-fanin heuristic fails (default 3).
	// The single-target backtrace makes PODEM incomplete; randomized
	// restarts recover most of the loss cheaply.
	Restarts int
	// Scoap, when set (circuit.ComputeScoap), steers the deterministic
	// backtrace toward the fanin with the cheapest controllability for
	// the needed value instead of the first X fanin.
	Scoap *circuit.Scoap

	// vals holds the 3-valued gate values per frame. Outside setInput
	// it always equals what simulate would compute from inAssn
	// (DESIGN.md §18).
	vals       [2][]byte
	inAssn     [2][]byte // input assignments (by input index)
	unassigned []byte    // gate values with every input at X
	inputIdx   []int32   // input index by GateID, -1 for non-inputs
	// Event-driven implication scratch: gates awaiting re-evaluation,
	// bucketed by circuit level, and their membership flags.
	pending [][]circuit.GateID
	queued  []bool
	choice  *rand.Rand // nil = deterministic first-X-fanin backtrace
}

// NewGenerator returns a Generator for c.
func NewGenerator(c *circuit.Circuit) *Generator {
	g := &Generator{
		c:              c,
		BacktrackLimit: 2000,
		Restarts:       3,
		inputIdx:       make([]int32, len(c.Gates)),
		pending:        make([][]circuit.GateID, c.Depth()+1),
		queued:         make([]bool, len(c.Gates)),
	}
	for i := range c.Gates {
		g.inputIdx[i] = -1
	}
	for i, in := range c.Inputs {
		g.inputIdx[in] = int32(i)
	}
	for f := 0; f < 2; f++ {
		g.vals[f] = make([]byte, len(c.Gates))
		g.inAssn[f] = bytes.Repeat([]byte{fX}, len(c.Inputs))
	}
	g.simulate()
	g.unassigned = slices.Clone(g.vals[0])
	return g
}

// clear unassigns every input of both frames. Copying the all-X gate
// values restores vals == simulate(inAssn) without a simulation pass.
func (g *Generator) clear() {
	for f := 0; f < 2; f++ {
		for i := range g.inAssn[f] {
			g.inAssn[f][i] = fX
		}
		copy(g.vals[f], g.unassigned)
	}
}

// simulate refreshes both frames' 3-valued gate values from the
// current input assignments.
func (g *Generator) simulate() {
	c := g.c
	for f := 0; f < 2; f++ {
		vals := g.vals[f]
		for i, in := range c.Inputs {
			vals[in] = g.inAssn[f][i]
		}
		for _, gid := range c.Order {
			gate := &c.Gates[gid]
			if gate.Type == circuit.Input {
				continue
			}
			vals[gid] = evalT(gate.Type, gate.Fanin, vals)
		}
	}
}

// setInput assigns v (f0, f1 or fX) to input idx in frame and implies
// the change forward: only the input's fan-out cone in that frame is
// re-evaluated, level by level, and propagation stops at every gate
// whose 3-valued output does not change. Given vals == simulate(inAssn)
// on entry, the same holds on return, so assigning fX undoes a
// decision exactly.
func (g *Generator) setInput(frame, idx int, v byte) {
	c := g.c
	vals := g.vals[frame]
	g.inAssn[frame][idx] = v
	in := c.Inputs[idx]
	if vals[in] == v {
		return
	}
	vals[in] = v
	lo, hi := len(g.pending), -1
	schedule := func(gid circuit.GateID) {
		for _, fo := range c.Gates[gid].Fanout {
			if g.queued[fo] {
				continue
			}
			g.queued[fo] = true
			l := c.Levels[fo]
			g.pending[l] = append(g.pending[l], fo)
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	schedule(in)
	// A gate's fan-out sits at strictly higher levels, so sweeping the
	// levels upward evaluates every gate after all of its changed
	// fanins.
	for l := lo; l <= hi; l++ {
		for _, gid := range g.pending[l] {
			g.queued[gid] = false
			if nv := evalT(c.Gates[gid].Type, c.Gates[gid].Fanin, vals); nv != vals[gid] {
				vals[gid] = nv
				schedule(gid)
			}
		}
		g.pending[l] = g.pending[l][:0]
	}
}

// pathObjectives derives the launch assignment and side-input
// objectives for path p with the given launch polarity and criterion.
// It returns the required on-path pin values so that the caller can
// verify them, plus the objective list.
func (g *Generator) pathObjectives(p path.Path, rising, robust bool) ([]objective, error) {
	c := g.c
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	var objs []objective
	// Launch values at the path input.
	launch := c.Arcs[p.Arcs[0]].From
	v1, v2 := b2t(!rising), b2t(rising)
	objs = append(objs, objective{g: launch, frame: 0, val: v1}, objective{g: launch, frame: 1, val: v2})

	// Walk the path, tracking the on-path transition polarity.
	cur1, cur2 := v1, v2
	for _, aid := range p.Arcs {
		a := &c.Arcs[aid]
		gate := &c.Gates[a.To]
		ctrl, hasCtrl := gate.Type.Controlling()
		switch {
		case hasCtrl:
			cv := b2t(ctrl)
			// Side inputs: non-controlling in V2; steadily so in both
			// frames for (hazard-free) robust tests.
			steady := robust
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				objs = append(objs, objective{g: fi, frame: 1, val: cv ^ 1})
				if steady {
					objs = append(objs, objective{g: fi, frame: 0, val: cv ^ 1})
				}
			}
			if gate.Type.Inverting() {
				cur1, cur2 = cur1^1, cur2^1
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
			if gate.Type == circuit.Xnor {
				cur1, cur2 = cur1^1, cur2^1
			}
		case gate.Type == circuit.Not:
			cur1, cur2 = cur1^1, cur2^1
		case gate.Type == circuit.Buf || gate.Type == circuit.Output:
			// transparent
		default:
			return nil, fmt.Errorf("atpg: unsupported on-path cell %v", gate.Type)
		}
	}
	return objs, nil
}

// PathTest generates a two-vector test for path p. rising selects the
// launch polarity at the path input; robust selects the sensitization
// criterion. Unconstrained inputs are filled randomly from r. The
// generated pair is re-verified with CheckPathTest before being
// returned.
func (g *Generator) PathTest(p path.Path, rising, robust bool, r *rand.Rand) (logicsim.PatternPair, error) {
	objs, err := g.pathObjectives(p, rising, robust)
	if err != nil {
		return logicsim.PatternPair{}, err
	}
	g.clear()
	// Launch objectives are direct input assignments.
	var rest []objective
	for _, o := range objs {
		if idx := g.inputIdx[o.g]; idx >= 0 {
			prev := g.inAssn[o.frame][idx]
			if prev != fX && prev != o.val {
				return logicsim.PatternPair{}, ErrUntestable
			}
			g.setInput(o.frame, int(idx), o.val)
			continue
		}
		rest = append(rest, o)
	}

	// Attempt 0 uses the deterministic backtrace; further attempts
	// randomize the X-fanin choice (drawn from r, so the overall
	// generation stays reproducible per seed). A failed search undoes
	// every decision it made, so each attempt starts from the direct
	// input constraints alone.
	solved := false
	budgetHit := false
	for attempt := 0; attempt <= g.Restarts && !solved; attempt++ {
		if attempt == 0 {
			g.choice = nil
		} else {
			g.choice = r
		}
		backtracks := 0
		if g.search(rest, &backtracks) {
			solved = true
			break
		}
		if backtracks >= g.BacktrackLimit {
			budgetHit = true
		}
	}
	g.choice = nil
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

// search is the PODEM loop: check objectives, pick an X objective,
// backtrace to an input, branch. Each decision is implied with
// setInput and, when its subtree fails, undone by setting the input
// back to X, so a false return leaves inAssn and vals as they were.
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
	idx := int(g.inputIdx[in])
	for attempt := 0; attempt < 2; attempt++ {
		v := target
		if attempt == 1 {
			v = target ^ 1
		}
		g.setInput(open.frame, idx, v)
		if g.search(objs, backtracks) {
			return true
		}
		g.setInput(open.frame, idx, fX)
		*backtracks++
		if *backtracks >= g.BacktrackLimit {
			return false
		}
	}
	return false
}

// backtrace walks from an X-valued gate toward an unassigned input,
// choosing at each step a fanin that can move the output toward val.
func (g *Generator) backtrace(gid circuit.GateID, frame int, val byte) (circuit.GateID, byte, bool) {
	c := g.c
	for {
		gate := &c.Gates[gid]
		if gate.Type == circuit.Input {
			return gid, val, true
		}
		ctrl, hasCtrl := gate.Type.Controlling()
		need := val
		if gate.Type.Inverting() {
			need ^= 1
		}
		// Determine the value to pursue on the chosen fanin first, so
		// SCOAP guidance can cost candidates against it.
		var target byte
		switch {
		case hasCtrl:
			cv := b2t(ctrl)
			if need == cv {
				target = cv // one controlling input suffices
			} else {
				target = cv ^ 1 // all inputs must be non-controlling
			}
		case gate.Type == circuit.Xor || gate.Type == circuit.Xnor:
			target = f0 // arbitrary; parity resolved by other pins
		default: // NOT/BUF/Output
			target = need
		}
		// Choose an X-valued fanin: the cheapest by SCOAP
		// controllability when available, the first one otherwise, or
		// a random one during restarts.
		var pick circuit.GateID = -1
		nX := 0
		for _, fi := range gate.Fanin {
			if g.vals[frame][fi] != fX {
				continue
			}
			nX++
			switch {
			case pick < 0:
				pick = fi
			case g.choice != nil:
				if g.choice.IntN(nX) == 0 {
					pick = fi
				}
			case g.Scoap != nil:
				if g.Scoap.Controllability(fi, target == f1) < g.Scoap.Controllability(pick, target == f1) {
					pick = fi
				}
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
	for i := 0; i < n; i++ {
		a, b := g.inAssn[0][i], g.inAssn[1][i]
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
