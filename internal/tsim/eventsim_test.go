package tsim

import (
	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// eventSim is an event-queue timed simulator, the test oracle of the
// waveform kernel. It shares no code with the kernel: pending pin
// arrivals sit in a min-heap ordered by (time, schedule order), each
// popped arrival updates one pin, and the gate's function is
// re-evaluated over its pin values; a changed output is committed and
// fanned out as new arrivals. Its waveforms are raw: an output that
// toggles and toggles back at one instant records both steps.
type eventSim struct {
	c       *circuit.Circuit
	cur     []bool
	pinVals []bool
	pinOff  []int
	queue   eventHeap
	// fanRefs[fanIdx[g]:fanIdx[g+1]] lists gate g's fan-out pins in
	// (fan-out gate, pin) order, the order arrivals are scheduled in.
	fanRefs []fanRef
	fanIdx  []int
}

// event is a pending pin arrival: the delayed value v of the driver of
// pin (g, pin) becomes visible to gate g's function at time t. seq
// breaks ties in schedule order.
type event struct {
	t   float64
	seq int
	g   circuit.GateID
	pin int
	v   bool
}

// fanRef is one fan-out target of a gate: its new value arrives at pin
// (g, pin) after the delay of arc.
type fanRef struct {
	g   circuit.GateID
	pin int
	arc circuit.ArcID
}

// eventResult is one eventSim run.
type eventResult struct {
	Capture      []bool
	Transitioned []bool // gate g committed at least one step
	Init, Final  []bool
	Waveforms    [][]Step // raw, zero-width toggles included
}

func newEventSim(c *circuit.Circuit) *eventSim {
	e := &eventSim{
		c:      c,
		cur:    make([]bool, len(c.Gates)),
		pinOff: make([]int, len(c.Gates)+1),
		fanIdx: make([]int, len(c.Gates)+1),
	}
	for gi := range c.Gates {
		e.pinOff[gi+1] = e.pinOff[gi] + len(c.Gates[gi].Fanin)
		e.fanIdx[gi] = len(e.fanRefs)
		for _, ho := range c.Gates[gi].Fanout {
			h := &c.Gates[ho]
			for k, fi := range h.Fanin {
				if fi == circuit.GateID(gi) {
					e.fanRefs = append(e.fanRefs, fanRef{g: ho, pin: k, arc: h.InArcs[k]})
				}
			}
		}
	}
	e.fanIdx[len(c.Gates)] = len(e.fanRefs)
	e.pinVals = make([]bool, e.pinOff[len(c.Gates)])
	return e
}

// run simulates p under opts. Arrivals past the horizon are dropped:
// delays are positive, so they cannot cause an on-time commit.
func (e *eventSim) run(delays []float64, p logicsim.PatternPair, opts Options) *eventResult {
	c := e.c
	res := &eventResult{
		Capture:      make([]bool, len(c.Outputs)),
		Transitioned: make([]bool, len(c.Gates)),
		Init:         logicsim.Eval(c, p.V1),
		Final:        logicsim.Eval(c, p.V2),
		Waveforms:    make([][]Step, len(c.Gates)),
	}
	copy(e.cur, res.Init)
	for gi := range c.Gates {
		for k, fi := range c.Gates[gi].Fanin {
			e.pinVals[e.pinOff[gi]+k] = res.Init[fi]
		}
	}
	e.queue = e.queue[:0]
	seq := 0
	commit := func(t float64, g circuit.GateID, v bool) {
		e.cur[g] = v
		res.Transitioned[g] = true
		res.Waveforms[g] = append(res.Waveforms[g], Step{T: t, V: v})
		for _, fr := range e.fanRefs[e.fanIdx[g]:e.fanIdx[g+1]] {
			if te := t + arcDelay(delays, &opts, fr.arc); te <= opts.Horizon {
				e.queue.push(event{t: te, seq: seq, g: fr.g, pin: fr.pin, v: v})
				seq++
			}
		}
	}
	for i, g := range c.Inputs {
		if p.V1[i] != p.V2[i] {
			commit(0, g, p.V2[i])
		}
	}
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		pins := e.pinVals[e.pinOff[ev.g]:e.pinOff[ev.g+1]]
		if pins[ev.pin] == ev.v {
			continue
		}
		pins[ev.pin] = ev.v
		if v := c.Gates[ev.g].Type.Eval(pins); v != e.cur[ev.g] {
			commit(ev.t, ev.g, v)
		}
	}
	for i, o := range c.Outputs {
		res.Capture[i] = e.cur[o]
	}
	return res
}

// lessEv orders events by (t, seq). seq values are unique, so this is
// a strict total order and any correct min-heap pops the same sequence.
func lessEv(a, b *event) bool {
	if a.t != b.t { //lint:ignore floateq event ordering needs the exact time; (t, seq) tie-break makes the order total either way
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by lessEv.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !lessEv(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if lessEv(&q[c], &q[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
