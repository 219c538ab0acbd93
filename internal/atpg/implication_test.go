package atpg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
)

// evalT is the scalar oracle for eval: the 3-valued output of a cell
// of type t whose input pins are driven by gates fanin, reading their
// values from vals, computed straight from the CellType's logic.
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
	default:
		panic(fmt.Sprintf("atpg: evalT on %v", t))
	}
}

// truth is the test's own definition of each cell's function on the
// definite values in.
func truth(t circuit.CellType, in []byte) byte {
	ones := bytes.Count(in, []byte{f1})
	var out bool
	switch t {
	case circuit.Buf, circuit.Output, circuit.DFF:
		out = in[0] == f1
	case circuit.Not:
		out = in[0] == f0
	case circuit.And:
		out = ones == len(in)
	case circuit.Nand:
		out = ones < len(in)
	case circuit.Or:
		out = ones > 0
	case circuit.Nor:
		out = ones == 0
	case circuit.Xor:
		out = ones%2 == 1
	case circuit.Xnor:
		out = ones%2 == 0
	default:
		panic(fmt.Sprintf("atpg: no truth function for %v", t))
	}
	return b2t(out)
}

// TestEvalT pins the oracle on hand-checked cases, then compares the
// table-driven eval with it for every cell type, every legal fan-in up
// to 4 and every 3-valued input vector, and on definite vectors with
// the truth function.
func TestEvalT(t *testing.T) {
	// Pin k reads vals[k]: the fanin list is the identity.
	identity := func(n int) []circuit.GateID {
		fanin := make([]circuit.GateID, n)
		for k := range fanin {
			fanin[k] = circuit.GateID(k)
		}
		return fanin
	}
	cases := []struct {
		typ  circuit.CellType
		in   []byte
		want byte
	}{
		{circuit.And, []byte{f1, f1}, f1},
		{circuit.And, []byte{f0, fX}, f0},
		{circuit.And, []byte{f1, fX}, fX},
		{circuit.Nand, []byte{f0, fX}, f1},
		{circuit.Or, []byte{f1, fX}, f1},
		{circuit.Or, []byte{f0, fX}, fX},
		{circuit.Nor, []byte{f0, f0}, f1},
		{circuit.Xor, []byte{f1, f1}, f0},
		{circuit.Xor, []byte{f1, fX}, fX},
		{circuit.Xnor, []byte{f1, f0}, f0},
		{circuit.Not, []byte{fX}, fX},
		{circuit.Not, []byte{f0}, f1},
		{circuit.Buf, []byte{f1}, f1},
	}
	for _, c := range cases {
		if got := evalT(c.typ, identity(len(c.in)), c.in); got != c.want {
			t.Errorf("evalT(%v, %v) = %v, want %v", c.typ, c.in, got, c.want)
		}
	}

	checked, definite := 0, 0
	for typ := circuit.Input + 1; typ <= circuit.Output; typ++ {
		hi := typ.MaxFanin()
		if hi < 0 {
			hi = 4
		}
		for n := typ.MinFanin(); n <= hi; n++ {
			// Gate n is the cell under test; gates 0..n-1 drive its
			// pins.
			fanin := identity(n)
			g := &Generator{
				finStart: make([]int32, n+2),
				fin:      fanin,
				cells:    make([]cell, n+1),
			}
			g.finStart[n+1] = int32(n)
			g.cells[n] = cellOf(typ)
			vals := make([]byte, n+1)
			for code := 0; code < pow3(n); code++ {
				for k, rem := 0, code; k < n; k, rem = k+1, rem/3 {
					vals[k] = byte(rem % 3)
				}
				got := g.eval(circuit.GateID(n), vals)
				if want := evalT(typ, fanin, vals); got != want {
					t.Errorf("eval(%v, %v) = %d, evalT gives %d", typ, vals[:n], got, want)
				}
				checked++
				if bytes.IndexByte(vals[:n], fX) >= 0 {
					continue
				}
				if want := truth(typ, vals[:n]); got != want {
					t.Errorf("eval(%v, %v) = %d, truth gives %d", typ, vals[:n], got, want)
				}
				definite++
			}
		}
	}
	if checked != 6*(9+27+81)+4*3 || definite != 6*(4+8+16)+4*2 { // multi-input, single-input cells
		t.Errorf("checked %d input vectors, %d definite", checked, definite)
	}
}

func pow3(n int) int {
	p := 1
	for range n {
		p *= 3
	}
	return p
}

// implicationDriver drives a Generator through setInput, trail marks,
// undo, clear and restrict, and tracks the input assignment the
// generator's values must reflect.
type implicationDriver struct {
	g     *Generator
	assn  [2][]byte // expected input values, by input index
	marks []int     // trail marks, innermost last
	saved [][2][]byte
	objs  []objective // the objectives of the last restrict
}

func newImplicationDriver(c *circuit.Circuit) *implicationDriver {
	d := &implicationDriver{g: NewGenerator(c)}
	for f := range d.assn {
		d.assn[f] = bytes.Repeat([]byte{fX}, len(c.Inputs))
	}
	return d
}

func (d *implicationDriver) set(frame, idx int, v byte) {
	d.g.setInput(frame, d.g.c.Inputs[idx], v)
	d.assn[frame][idx] = v
}

func (d *implicationDriver) mark() {
	d.marks = append(d.marks, len(d.g.trail))
	d.saved = append(d.saved, [2][]byte{slices.Clone(d.assn[0]), slices.Clone(d.assn[1])})
}

// undo restores the innermost mark; it reports false when there is
// none.
func (d *implicationDriver) undo() bool {
	n := len(d.marks)
	if n == 0 {
		return false
	}
	d.g.undo(d.marks[n-1])
	d.assn = d.saved[n-1]
	d.marks, d.saved = d.marks[:n-1], d.saved[:n-1]
	return true
}

func (d *implicationDriver) clear() {
	d.g.clear()
	for f := range d.assn {
		for i := range d.assn[f] {
			d.assn[f][i] = fX
		}
	}
	d.marks, d.saved = d.marks[:0], d.saved[:0]
}

// restrict unassigns every input and restricts implication to the
// cones of objs, as prepare does.
func (d *implicationDriver) restrict(objs []objective) {
	d.clear()
	d.objs = objs
	d.g.restrict(objs)
}

// simulated returns a fresh Generator holding a full simulation of the
// expected input assignment.
func (d *implicationDriver) simulated() *Generator {
	want := NewGenerator(d.g.c)
	for f := 0; f < 2; f++ {
		for i, in := range d.g.c.Inputs {
			want.vals[f][in] = d.assn[f][i]
		}
	}
	want.simulate()
	return want
}

// check fails t unless the generator's values equal a full simulation
// of the expected input assignment, computed on a fresh Generator.
func (d *implicationDriver) check(t *testing.T, step string) {
	t.Helper()
	g := d.g
	want := d.simulated()
	for f := 0; f < 2; f++ {
		if !bytes.Equal(g.vals[f], want.vals[f]) {
			for gid := range want.vals[f] {
				if g.vals[f][gid] != want.vals[f][gid] {
					t.Fatalf("%s: frame %d gate %s = %d, full simulation gives %d",
						step, f, g.c.Gates[gid].Name, g.vals[f][gid], want.vals[f][gid])
				}
			}
		}
	}
}

// checkCone fails t unless each frame's cone holds that frame's
// objectives and is closed under fan-in, and every gate in it equals a
// full simulation of the expected input assignment.
func (d *implicationDriver) checkCone(t *testing.T, step string) {
	t.Helper()
	g := d.g
	for _, o := range d.objs {
		if g.rel[o.frame][o.g] != g.stamp {
			t.Fatalf("%s: objective gate %s not in frame %d's cone", step, g.c.Gates[o.g].Name, o.frame)
		}
	}
	want := d.simulated()
	for f := 0; f < 2; f++ {
		rel := g.rel[f]
		for gid := range rel {
			if rel[gid] != g.stamp {
				continue
			}
			for _, fi := range g.c.Gates[gid].Fanin {
				if rel[fi] != g.stamp {
					t.Fatalf("%s: frame %d cone holds %s but not its fanin %s",
						step, f, g.c.Gates[gid].Name, g.c.Gates[fi].Name)
				}
			}
			if g.vals[f][gid] != want.vals[f][gid] {
				t.Fatalf("%s: frame %d cone gate %s = %d, full simulation gives %d",
					step, f, g.c.Gates[gid].Name, g.vals[f][gid], want.vals[f][gid])
			}
		}
	}
}

// randomObjectives returns one to eight objectives on random gates of
// c in random frames.
func randomObjectives(r *rand.Rand, c *circuit.Circuit) []objective {
	objs := make([]objective, 1+r.IntN(8))
	for i := range objs {
		objs[i] = objective{g: circuit.GateID(r.IntN(len(c.Gates))), frame: r.IntN(2), val: byte(r.IntN(2))}
	}
	return objs
}

// randomSteps drives steps random assignments, unassignments, trail
// marks and undos through both frames, calls check after every one,
// and returns how many undos it ran.
func (d *implicationDriver) randomSteps(t *testing.T, r *rand.Rand, steps int, check func(*testing.T, string)) int {
	t.Helper()
	c := d.g.c
	undos := 0
	for step := 0; step < steps; step++ {
		switch op := r.IntN(12); {
		case op == 0:
			d.mark()
		case op == 1:
			if d.undo() {
				undos++
				check(t, fmt.Sprintf("step %d: after undo", step))
			}
		default:
			frame, idx := r.IntN(2), r.IntN(len(c.Inputs))
			v := fX
			if r.IntN(3) != 0 { // assign twice as often as unassign
				v = byte(r.IntN(2))
			}
			d.set(frame, idx, v)
			if d.g.vals[frame][c.Inputs[idx]] != v {
				t.Fatalf("step %d: input value not updated", step)
			}
			check(t, fmt.Sprintf("step %d", step))
		}
	}
	return undos
}

// implicationCircuits are the netlists the implication oracle runs on:
// two toy circuits and the three table1_analytic circuits.
func implicationCircuits(tb testing.TB) []*circuit.Circuit {
	tb.Helper()
	var cs []*circuit.Circuit
	for _, name := range []string{"mini", "small", "s1196", "s1238", "s1488"} {
		c, err := synth.GenerateNamed(name, 2003)
		if err != nil {
			tb.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestImplicationMatchesFullSimulate drives random sequences of
// assignments, unassignments, trail marks and undos through both
// frames and checks after every step that the incrementally maintained
// values equal a full re-simulation of the assignment — the invariant
// PODEM relies on. A fresh Generator's cone is the whole circuit, so
// every gate must match. It then restricts implication to the cones of
// random objective sets, one stamp wrap included, and checks after
// every step that every gate in a cone still matches.
func TestImplicationMatchesFullSimulate(t *testing.T) {
	for _, c := range implicationCircuits(t) {
		t.Run(c.Name, func(t *testing.T) {
			d := newImplicationDriver(c)
			d.check(t, "fresh generator")
			r := rng.New(7)
			undos := 0
			for range 3 {
				undos += d.randomSteps(t, r, 200, d.check)
				d.clear()
				d.check(t, "after clear")
			}
			if undos == 0 {
				t.Error("no undo exercised")
			}

			undos = 0
			for k := range 4 {
				if k == 3 {
					d.g.stamp = math.MaxUint32 // the next restrict wraps
				}
				d.restrict(randomObjectives(r, c))
				d.checkCone(t, fmt.Sprintf("cone %d: after restrict", k))
				undos += d.randomSteps(t, r, 150, d.checkCone)
			}
			if d.g.stamp != 1 {
				t.Errorf("stamp %d after the wrap, want 1", d.g.stamp)
			}
			if undos == 0 {
				t.Error("no undo exercised under a cone")
			}
		})
	}
}

// FuzzImplication is TestImplicationMatchesFullSimulate with the
// operation sequence chosen by the fuzzer. Each 3-byte group is one
// operation: bit 0 of the first byte selects the frame and bits 1-2
// the operation (0, 1: assign; 2: mark; 3: undo to the innermost
// mark); for an assignment the second byte selects the input and the
// third the value (0, 1 or X). When bit 3 is set the group instead
// adds an objective on the gate the second and third bytes select and
// restricts implication to the cones of every objective added so far.
// Until the first restrict every gate must match a full simulation;
// after it, every gate in a cone.
func FuzzImplication(f *testing.F) {
	cs := implicationCircuits(f)
	f.Add(byte(0), []byte{0, 0, 1, 1, 0, 0, 0, 0, 2})
	f.Add(byte(1), []byte{3, 7, 0, 2, 9, 1, 3, 7, 2, 0, 1, 1})
	f.Add(byte(2), []byte{1, 200, 1, 0, 13, 0, 1, 200, 2, 1, 5, 1})
	f.Add(byte(2), []byte{4, 0, 0, 1, 3, 1, 0, 4, 0, 6, 0, 0, 1, 3, 0})
	f.Add(byte(3), []byte{8, 1, 44, 0, 2, 1, 4, 0, 0, 1, 5, 0, 9, 0, 7, 1, 2, 1, 6, 0, 0})
	f.Add(byte(4), []byte{9, 3, 200, 8, 2, 17, 1, 0, 1, 0, 9, 0, 4, 0, 0, 1, 9, 1, 6, 0, 0})
	f.Fuzz(func(t *testing.T, which byte, seq []byte) {
		c := cs[int(which)%len(cs)]
		d := newImplicationDriver(c)
		var objs []objective
		for i := 0; i+2 < len(seq); i += 3 {
			switch {
			case seq[i]&8 != 0:
				gid := (int(seq[i+1])<<8 | int(seq[i+2])) % len(c.Gates)
				objs = append(objs, objective{g: circuit.GateID(gid), frame: int(seq[i] & 1), val: f1})
				d.restrict(objs)
			case seq[i]>>1&3 == 2:
				d.mark()
			case seq[i]>>1&3 == 3:
				d.undo()
			default:
				d.set(int(seq[i]&1), int(seq[i+1])%len(c.Inputs), seq[i+2]%3)
			}
			if objs == nil {
				d.check(t, "fuzz step")
			} else {
				d.checkCone(t, "fuzz step")
			}
		}
	})
}
