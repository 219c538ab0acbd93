package circuit

import (
	"strings"
	"testing"
)

// TestCheckPassesOnValidCircuit pins the baseline: a well-formed
// netlist produces no diagnostics.
func TestCheckPassesOnValidCircuit(t *testing.T) {
	if err := buildC17(t).Check(); err != nil {
		t.Fatalf("Check on valid circuit: %v", err)
	}
}

// loopCircuit hand-assembles a structurally consistent netlist whose
// two buffers feed each other — a combinational loop that no Builder
// output can contain, so Check must catch it on hand-made or
// transformed circuits.
func loopCircuit() *Circuit {
	gates := []Gate{
		{ID: 0, Name: "i", Type: Input, Fanout: []GateID{}},
		{ID: 1, Name: "a", Type: Buf, Fanin: []GateID{2}, Fanout: []GateID{2, 3}, InArcs: []ArcID{0}},
		{ID: 2, Name: "b", Type: Buf, Fanin: []GateID{1}, Fanout: []GateID{1}, InArcs: []ArcID{1}},
		{ID: 3, Name: "o", Type: Output, Fanin: []GateID{1}, Fanout: []GateID{}, InArcs: []ArcID{2}},
	}
	arcs := []Arc{
		{ID: 0, From: 2, To: 1, Pin: 0},
		{ID: 1, From: 1, To: 2, Pin: 0},
		{ID: 2, From: 1, To: 3, Pin: 0},
	}
	return &Circuit{
		Name:    "loop",
		Gates:   gates,
		Arcs:    arcs,
		Inputs:  []GateID{0},
		Outputs: []GateID{3},
		Order:   []GateID{0, 1, 2, 3},
		Levels:  []int{0, 1, 2, 3},
	}
}

func TestCheckRejectsCombinationalLoop(t *testing.T) {
	err := loopCircuit().Check()
	if err == nil {
		t.Fatal("Check accepted a combinational loop")
	}
	if !strings.Contains(err.Error(), "precedence") {
		t.Errorf("loop reported as %q, want a precedence violation", err)
	}
}

func TestCheckRejectsDanglingArc(t *testing.T) {
	c := buildC17(t)
	// An arc with valid endpoints that no input pin references: the
	// timing model would assign it a delay no simulation ever uses.
	c.Arcs = append(c.Arcs, Arc{
		ID:   ArcID(len(c.Arcs)),
		From: c.Inputs[0],
		To:   c.Outputs[0],
		Pin:  0,
	})
	err := c.Check()
	if err == nil {
		t.Fatal("Check accepted a dangling arc")
	}
	if !strings.Contains(err.Error(), "dangling arc") {
		t.Errorf("dangling arc reported as %q", err)
	}
}

func TestCheckRejectsOutOfRangeArc(t *testing.T) {
	c := buildC17(t)
	c.Arcs = append(c.Arcs, Arc{
		ID:   ArcID(len(c.Arcs)),
		From: GateID(len(c.Gates) + 7),
		To:   c.Outputs[0],
		Pin:  0,
	})
	err := c.Check()
	if err == nil {
		t.Fatal("Check accepted an arc with out-of-range endpoints")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range arc reported as %q", err)
	}
}

func TestCheckRejectsOutOfRangeInArc(t *testing.T) {
	c := buildC17(t)
	g := &c.Gates[c.Outputs[0]]
	saved := g.InArcs[0]
	g.InArcs[0] = ArcID(len(c.Arcs) + 3)
	err := c.Check()
	g.InArcs[0] = saved
	if err == nil {
		t.Fatal("Check accepted an out-of-range in-arc id")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range in-arc reported as %q", err)
	}
}

func TestCheckRejectsDoublyAttachedArc(t *testing.T) {
	c := buildC17(t)
	// Point the output port's single pin at an arc already owned by
	// another gate: duplicate attachment (or inconsistency) must be
	// caught before the dangling pass.
	g := &c.Gates[c.Outputs[0]]
	saved := g.InArcs[0]
	g.InArcs[0] = c.Gates[c.Outputs[1]].InArcs[0]
	err := c.Check()
	g.InArcs[0] = saved
	if err == nil {
		t.Fatal("Check accepted a doubly-attached arc")
	}
}

func TestCheckRejectsFanoutOutOfArcOrder(t *testing.T) {
	c := buildC17(t)
	// n11 feeds n16 (an earlier arc) and n19: list them the other way.
	n11, _ := c.GateByName("n11")
	n11.Fanout = []GateID{n11.Fanout[1], n11.Fanout[0]}
	err := c.Check()
	if err == nil {
		t.Fatal("Check accepted a fan-out list out of arc order")
	}
	if !strings.Contains(err.Error(), "fan-out") {
		t.Errorf("fan-out order reported as %q", err)
	}

	c = buildC17(t)
	n11, _ = c.GateByName("n11")
	n11.Fanout = n11.Fanout[:1]
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "fan-out") {
		t.Errorf("short fan-out list reported as %v", err)
	}
}

func TestCheckRejectsArcsOutOfPinOrder(t *testing.T) {
	c := buildC17(t)
	// Swap the numbers of n10's two in-arcs: every arc stays attached
	// to one pin and consistent with it, and the fan-out lists keep
	// their order, but arc 0 now belongs to pin 1.
	n10, _ := c.GateByName("n10")
	a0, a1 := n10.InArcs[0], n10.InArcs[1]
	c.Arcs[a0], c.Arcs[a1] = c.Arcs[a1], c.Arcs[a0]
	c.Arcs[a0].ID, c.Arcs[a1].ID = a0, a1
	n10.InArcs = []ArcID{a1, a0}
	err := c.Check()
	if err == nil {
		t.Fatal("Check accepted arcs out of (gate, pin) order")
	}
	if !strings.Contains(err.Error(), "(gate, pin) order") {
		t.Errorf("arc order reported as %q", err)
	}
}
