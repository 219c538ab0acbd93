package circuit

import (
	"fmt"
	"strings"
)

// GateID indexes a gate within a Circuit.
type GateID int32

// ArcID indexes a pin-to-pin arc within a Circuit. Arcs are the
// elements of the paper's edge set E: each carries one delay random
// variable in the circuit model, one fixed delay in a circuit instance,
// and is the unit of defect location in the segment-oriented defect
// model (Definition D.9).
type ArcID int32

// Gate is one cell instance (vertex of the circuit DAG).
type Gate struct {
	ID     GateID
	Name   string
	Type   CellType
	Fanin  []GateID // ordered input drivers
	Fanout []GateID // gates reading this gate's output
	InArcs []ArcID  // InArcs[k] is the arc into input pin k
}

// Arc is a pin-to-pin timing edge: the path from gate From's output,
// through the interconnect, through input pin Pin of gate To, to gate
// To's output. Its delay aggregates wire delay and the cell's
// pin-to-pin delay, matching the cell-based statistical model of [5].
type Arc struct {
	ID   ArcID
	From GateID
	To   GateID
	Pin  int // input pin index on To
}

// Circuit is an immutable combinational (after scan conversion)
// gate-level netlist with its topological metadata precomputed.
type Circuit struct {
	Name    string
	Gates   []Gate
	Arcs    []Arc
	Inputs  []GateID // primary + pseudo-primary inputs, in declaration order
	Outputs []GateID // primary + pseudo-primary outputs, in declaration order
	Order   []GateID // a topological order over all gates
	Levels  []int    // Levels[g] = longest distance (in arcs) from any input

	// The flat fan-in and fan-out tables every Gate's Fanin, InArcs
	// and Fanout view; see FaninTable and FanoutTable.
	finOff, foutOff []int32
	fin, fout       []GateID
}

// FaninTable returns the circuit's fan-in table: gate g's drivers are
// fanin[off[g]:off[g+1]] in pin order. Arcs are numbered in (gate,
// pin) order, so fan-in slot k is arc k. Every Gate's Fanin views the
// same array; callers must not modify it.
func (c *Circuit) FaninTable() (off []int32, fanin []GateID) { return c.finOff, c.fin }

// FanoutTable returns the circuit's fan-out table: the gates reading
// gate g are fanout[off[g]:off[g+1]] in arc order. Every Gate's Fanout
// views the same array; callers must not modify it.
func (c *Circuit) FanoutTable() (off []int32, fanout []GateID) { return c.foutOff, c.fout }

// Builder incrementally constructs a Circuit. Gates may be declared in
// any order; fan-in references are resolved by name at Build time.
type Builder struct {
	name    string
	gates   []builderGate
	fanin   []string // every gate's fan-in names, gate after gate
	inputs  []string
	outputs []string
	index   map[string]int
}

type builderGate struct {
	name   string
	typ    CellType
	lo, hi int32 // the gate's fan-in names are fanin[lo:hi]
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: make(map[string]int)}
}

// AddInput declares a primary input named name.
func (b *Builder) AddInput(name string) error {
	if err := b.declare(name, Input, nil); err != nil {
		return err
	}
	b.inputs = append(b.inputs, name)
	return nil
}

// MarkOutput declares that the named signal is a primary output. The
// signal itself may be declared before or after this call.
func (b *Builder) MarkOutput(name string) {
	b.outputs = append(b.outputs, name)
}

// AddGate declares a gate computing typ over the named fan-in signals.
// The names are copied, so the caller may reuse fanin.
func (b *Builder) AddGate(name string, typ CellType, fanin ...string) error {
	return b.declare(name, typ, fanin)
}

func (b *Builder) declare(name string, typ CellType, fanin []string) error {
	if name == "" {
		return fmt.Errorf("circuit: empty gate name")
	}
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("circuit: duplicate signal %q", name)
	}
	if n := len(fanin); n < typ.MinFanin() || (typ.MaxFanin() >= 0 && n > typ.MaxFanin()) {
		return fmt.Errorf("circuit: %v gate %q has %d inputs", typ, name, n)
	}
	b.index[name] = len(b.gates)
	lo := int32(len(b.fanin))
	b.fanin = append(b.fanin, fanin...)
	b.gates = append(b.gates, builderGate{name: name, typ: typ, lo: lo, hi: int32(len(b.fanin))})
	return nil
}

// portSuffix names an output port gate after the signal it observes.
const portSuffix = "$out"

// Build resolves all references, scan-converts DFFs if scanConvert is
// set (each DFF output becomes a pseudo-primary input and each DFF data
// input a pseudo-primary output, the standard full-scan view used for
// delay test), verifies acyclicity, and returns the finished Circuit.
//
// Gate i is the i-th declared gate, followed by one Output port gate
// per output. Every gate's Fanin, InArcs and Fanout are
// capacity-capped views into three flat arrays, so appending to one
// never writes into another gate's.
func (b *Builder) Build(scanConvert bool) (*Circuit, error) {
	inputs, outputs := b.inputs, b.outputs
	nArcs := len(b.fanin)
	if scanConvert {
		inputs, outputs = b.scanConvert()
		// Each DFF drops its one fan-in and adds one output.
		nArcs -= len(outputs) - len(b.outputs)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no inputs", b.name)
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no outputs", b.name)
	}
	nSig := len(b.gates)
	n := nSig + len(outputs)
	portArc := nArcs
	nArcs += len(outputs)
	c := &Circuit{
		Name:    b.name,
		Gates:   make([]Gate, n),
		Arcs:    make([]Arc, nArcs),
		Inputs:  make([]GateID, len(inputs)),
		Outputs: make([]GateID, len(outputs)),
		finOff:  make([]int32, n+1),
		foutOff: make([]int32, n+1),
		fin:     make([]GateID, nArcs),
		fout:    make([]GateID, nArcs),
	}

	// Materialize explicit Output port gates so POs are vertices of O
	// distinct from internal signals (Definition D.1 requires I∩O = ∅
	// and our synthetic/ISCAS netlists may output an input directly).
	// All port names are slices of one string.
	size := len(outputs) * len(portSuffix)
	for _, name := range outputs {
		size += len(name)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, name := range outputs {
		sb.WriteString(name)
		sb.WriteString(portSuffix)
	}
	ports, at := sb.String(), 0
	for o, name := range outputs {
		src, ok := b.index[name]
		if !ok {
			return nil, fmt.Errorf("circuit: output %q is undeclared", name)
		}
		id := GateID(nSig + o)
		end := at + len(name) + len(portSuffix)
		c.Gates[id] = Gate{ID: id, Name: ports[at:end], Type: Output}
		at = end
		c.fin[portArc+o] = GateID(src)
		c.finOff[id+1] = int32(portArc + o + 1)
		c.Outputs[o] = id
	}
	// Resolve fan-in names for the declared gates.
	k := 0
	for i := range b.gates {
		g := &b.gates[i]
		typ, refs := g.typ, b.fanin[g.lo:g.hi]
		if scanConvert && typ == DFF {
			typ, refs = Input, nil
		}
		c.Gates[i] = Gate{ID: GateID(i), Name: g.name, Type: typ}
		for _, ref := range refs {
			j, ok := b.index[ref]
			if !ok {
				return nil, fmt.Errorf("circuit: gate %q references undeclared signal %q", g.name, ref)
			}
			c.fin[k] = GateID(j)
			k++
		}
		c.finOff[i+1] = int32(k)
	}
	for i, name := range inputs {
		c.Inputs[i] = GateID(b.index[name])
	}

	// Arcs in (gate, pin) order, so fan-in slot a is arc a; then the
	// fan-out table by one counting pass over the arcs.
	inArcs := make([]ArcID, nArcs)
	for g := range c.Gates {
		lo, hi := c.finOff[g], c.finOff[g+1]
		for a := lo; a < hi; a++ {
			from := c.fin[a]
			c.Arcs[a] = Arc{ID: ArcID(a), From: from, To: GateID(g), Pin: int(a - lo)}
			inArcs[a] = ArcID(a)
			c.foutOff[from+1]++
		}
		c.Gates[g].Fanin = c.fin[lo:hi:hi]
		c.Gates[g].InArcs = inArcs[lo:hi:hi]
	}
	for g := 0; g < n; g++ {
		c.foutOff[g+1] += c.foutOff[g]
	}
	next := make([]int32, n)
	copy(next, c.foutOff)
	for a := range c.Arcs {
		from := c.Arcs[a].From
		c.fout[next[from]] = c.Arcs[a].To
		next[from]++
	}
	for g := range c.Gates {
		lo, hi := c.foutOff[g], c.foutOff[g+1]
		c.Gates[g].Fanout = c.fout[lo:hi:hi]
	}

	if err := c.computeOrder(); err != nil {
		return nil, err
	}
	c.computeLevels()
	return c, nil
}

// scanConvert returns the input and output lists of the full-scan
// view: each DFF's output name is appended as an Input (pseudo-PI) and
// its data-input signal as an Output (pseudo-PO). Original PIs/POs are
// retained. Every gate keeps its position and name, so Build turns a
// DFF into an Input in place and resolves names through b.index.
func (b *Builder) scanConvert() (inputs, outputs []string) {
	nDFF := 0
	for i := range b.gates {
		if b.gates[i].typ == DFF {
			nDFF++
		}
	}
	inputs = append(make([]string, 0, len(b.inputs)+nDFF), b.inputs...)
	outputs = append(make([]string, 0, len(b.outputs)+nDFF), b.outputs...)
	for i := range b.gates {
		if g := &b.gates[i]; g.typ == DFF {
			inputs = append(inputs, g.name)
			outputs = append(outputs, b.fanin[g.lo])
		}
	}
	return inputs, outputs
}

// GateByName returns the gate with the given signal name. Names repeat
// only through output port gates (an output declared twice, or a port
// "x$out" beside a declared signal named "x$out"); the last such gate
// is returned.
func (c *Circuit) GateByName(name string) (*Gate, bool) {
	for i := len(c.Gates) - 1; i >= 0; i-- {
		if c.Gates[i].Name == name {
			return &c.Gates[i], true
		}
	}
	return nil, false
}

// NumGates returns the number of gates (including port gates).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// computeOrder performs Kahn's algorithm, failing on cycles. The
// zero-in-degree gates are queued in ascending ID order and each gate
// queues its fan-out in arc order, first in first out, so the order is
// deterministic for a given netlist.
func (c *Circuit) computeOrder() error {
	indeg := make([]int32, len(c.Gates))
	order := make([]GateID, 0, len(c.Gates))
	for i := range c.Gates {
		indeg[i] = c.finOff[i+1] - c.finOff[i]
		if indeg[i] == 0 {
			order = append(order, GateID(i))
		}
	}
	// order doubles as the queue: gates before head are dequeued.
	for head := 0; head < len(order); head++ {
		for _, fo := range c.Gates[order[head]].Fanout {
			indeg[fo]--
			if indeg[fo] == 0 {
				order = append(order, fo)
			}
		}
	}
	if len(order) != len(c.Gates) {
		return fmt.Errorf("circuit %q: cycle detected (%d of %d gates ordered); sequential loops must be cut by scan conversion", c.Name, len(order), len(c.Gates))
	}
	c.Order = order
	return nil
}

// computeLevels assigns each gate its longest arc-distance from any
// zero-fanin gate.
func (c *Circuit) computeLevels() {
	c.Levels = make([]int, len(c.Gates))
	for _, g := range c.Order {
		lvl := 0
		for _, fi := range c.Gates[g].Fanin {
			if l := c.Levels[fi] + 1; l > lvl {
				lvl = l
			}
		}
		c.Levels[g] = lvl
	}
}

// Depth returns the maximum level over all gates (the logic depth).
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.Levels {
		if l > d {
			d = l
		}
	}
	return d
}
