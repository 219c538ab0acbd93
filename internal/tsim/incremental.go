package tsim

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// waves is a set of right-continuous gate waveforms in one step arena:
// gate g's waveform is steps[off[g]:end[g]] when set[g] == gen, and
// empty otherwise. Opening a generation (reset) empties every waveform
// at once, so no pass clears per-gate state.
type waves struct {
	gen      uint32
	set      []uint32
	off, end []int32
	steps    []Step
}

func newWaves(n int) waves {
	return waves{
		set: make([]uint32, n),
		off: make([]int32, n),
		end: make([]int32, n),
	}
}

// reset empties every waveform.
func (w *waves) reset() {
	w.gen++
	if w.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(w.set)
		w.gen = 1
	}
	w.steps = w.steps[:0]
}

// get returns gate g's waveform and whether it is set in this
// generation.
func (w *waves) get(g circuit.GateID) ([]Step, bool) {
	if w.set[g] != w.gen {
		return nil, false
	}
	return w.steps[w.off[g]:w.end[g]], true
}

// keep sets gate g's waveform to steps[off:].
func (w *waves) keep(g circuit.GateID, off int) {
	w.set[g] = w.gen
	w.off[g] = int32(off)
	w.end[g] = int32(len(w.steps))
}

// worklist holds the gates a kernel pass has still to visit, bucketed
// by level (circuit.Levels): g is queued when queued[g] == gen, and
// byLevel[l] lists the queued gates of level l, all within [lo, hi].
type worklist struct {
	c       *circuit.Circuit
	gen     uint32
	queued  []uint32
	byLevel [][]circuit.GateID
	lo, hi  int
}

func newWorklist(c *circuit.Circuit) worklist {
	return worklist{
		c:       c,
		queued:  make([]uint32, len(c.Gates)),
		byLevel: make([][]circuit.GateID, c.Depth()+1),
	}
}

// reset empties the worklist.
func (q *worklist) reset() {
	q.gen++
	if q.gen == 0 {
		clear(q.queued)
		q.gen = 1
	}
	q.lo, q.hi = len(q.byLevel), -1
}

// push queues gate g unless it is already queued.
func (q *worklist) push(g circuit.GateID) {
	if q.queued[g] == q.gen {
		return
	}
	q.queued[g] = q.gen
	l := q.c.Levels[g]
	q.byLevel[l] = append(q.byLevel[l], g)
	q.lo = min(q.lo, l)
	q.hi = max(q.hi, l)
}

// pinCursor is one input pin of the gate being rebuilt: its driver's
// waveform w, the arc delay d, the cursor i into w and the pin's
// current value v.
type pinCursor struct {
	w []Step
	d float64
	i int
	v bool
}

// RunDefectDiff returns the outputs captured at horizon by a run of
// base's pattern and delays with defect overlay (defectArc, extra),
// re-evaluating only the gates whose waveform the defect changes.
// base must come from a Run on the same delays and horizon; it may
// come from this engine. DefectWaveform reads the defective waveforms
// after the call.
//
// The kernel pass is seeded at defectArc.To against base's waveforms:
// each visited gate's waveform is rebuilt from its drivers' (the
// rebuilt waveform of a changed driver, the baseline waveform of every
// other), and its fan-out is visited only if the rebuilt waveform
// differs from the baseline. Outputs never reached keep base.Capture.
// The captures equal a full Run with the overlay (DESIGN.md §20).
//
// The returned slice is engine-owned and valid until the next
// RunDefectDiff on this engine; full runs do not touch it.
//
//ddd:hot
func (e *Engine) RunDefectDiff(delays []float64, base *Result, defectArc circuit.ArcID, extra, horizon float64) []bool {
	if base.w == nil {
		panic("tsim: RunDefectDiff requires a baseline produced by Run")
	}
	c := e.c
	opts := Options{Horizon: horizon, DefectArc: defectArc, DefectExtra: extra}
	e.diff.reset()
	e.queue.reset()
	e.queue.push(c.Arcs[defectArc].To)
	e.propagate(&e.diff, base.w, base.Init, delays, &opts)

	for i, o := range c.Outputs {
		w, changed := e.diff.get(o)
		switch {
		case !changed:
			e.diffCapture[i] = base.Capture[i]
		case len(w) > 0:
			e.diffCapture[i] = w[len(w)-1].V
		default:
			e.diffCapture[i] = base.Init[o]
		}
	}
	return e.diffCapture
}

// DefectWaveform returns gate g's waveform under the defect of this
// engine's last RunDefectDiff, which ran against base: the rebuilt
// waveform and true when the defect changed it, base's waveform and
// false otherwise. The slice is valid as long as both the
// RunDefectDiff answer and base are.
func (e *Engine) DefectWaveform(base *Result, g circuit.GateID) ([]Step, bool) {
	if w, ok := e.diff.get(g); ok {
		return w, true
	}
	return base.Waveform(g), false
}

// propagate is the kernel pass. It visits the queued gates in
// increasing level order and rebuilds each one's waveform into out
// from its drivers' (out's where set, base's otherwise). A gate whose
// waveform differs from base's is kept in out and queues its fan-out;
// a nil base is all quiet.
//
// Under the transport-delay model a gate's value just after time t
// depends only on its drivers' values just after t − d_k, so
// waveforms are built and compared as right-continuous step functions:
// all pin arrivals at one instant are applied before the gate is
// evaluated, and a same-instant (zero-width) toggle is never a step.
//
//ddd:hot
func (e *Engine) propagate(out, base *waves, init []bool, delays []float64, opts *Options) {
	q := &e.queue
	// Fan-out lies at strictly higher levels, so level l does not grow
	// while it is walked; q.hi may.
	for l := q.lo; l <= q.hi; l++ {
		for _, g := range q.byLevel[l] {
			if !e.rebuild(out, base, init, g, delays, opts) {
				continue
			}
			for _, h := range e.c.Gates[g].Fanout {
				q.push(h)
			}
		}
		q.byLevel[l] = q.byLevel[l][:0]
	}
}

// rebuild computes gate g's right-continuous output waveform up to
// the horizon at the end of out.steps and reports whether it differs
// from g's baseline waveform. A differing waveform is kept in out; one
// equal to the baseline is discarded.
//
//ddd:hot
func (e *Engine) rebuild(out, base *waves, init []bool, g circuit.GateID, delays []float64, opts *Options) bool {
	gate := &e.c.Gates[g]
	md := e.gmode[g]
	cv := md&gmCV != 0
	pins := e.pins[:0]
	var cnt int16
	for k, fi := range gate.Fanin {
		v := init[fi]
		if v == cv {
			cnt++
		}
		w, ok := out.get(fi)
		if !ok && base != nil {
			w, _ = base.get(fi)
		}
		if len(w) > 0 {
			pins = append(pins, pinCursor{w: w, d: arcDelay(delays, opts, gate.InArcs[k]), v: v})
		}
	}
	e.pins = pins

	val := init[g]
	off := len(out.steps)
	for {
		// The next instant is the earliest pending arrival on any pin.
		t := math.Inf(1)
		live := false
		for i := range pins {
			p := &pins[i]
			if p.i < len(p.w) {
				if ta := p.w[p.i].T + p.d; ta <= opts.Horizon && ta < t {
					t = ta
					live = true
				}
			}
		}
		if !live {
			break
		}
		// Apply every arrival at t; a pin's last one wins.
		for i := range pins {
			p := &pins[i]
			v := p.v
			for p.i < len(p.w) && p.w[p.i].T+p.d == t { //lint:ignore floateq arrivals at one instant must group on their exact float time
				v = p.w[p.i].V
				p.i++
			}
			if v != p.v {
				p.v = v
				if v == cv {
					cnt++
				} else {
					cnt--
				}
			}
		}
		var nv bool
		if md&gmParity != 0 {
			nv = (cnt&1 == 1) != (md&gmInv != 0)
		} else {
			nv = (cnt == 0) != (md&gmInv != 0)
		}
		if nv != val {
			out.steps = append(out.steps, Step{T: t, V: nv})
			val = nv
		}
	}

	var bw []Step
	if base != nil {
		bw, _ = base.get(g)
	}
	if sameWaveform(out.steps[off:], bw) {
		out.steps = out.steps[:off]
		return false
	}
	out.keep(g, off)
	return true
}

// sameWaveform reports whether two right-continuous waveforms from
// the same initial value are equal.
func sameWaveform(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].V != b[i].V { //lint:ignore floateq waveform identity is exact: both sides are the same float sums
			return false
		}
	}
	return true
}

// CheckPair validates that a pattern pair matches the circuit's input
// width, returning a descriptive error instead of the panic that the
// simulator would raise.
func CheckPair(c *circuit.Circuit, p logicsim.PatternPair) error {
	if len(p.V1) != len(c.Inputs) || len(p.V2) != len(c.Inputs) {
		return fmt.Errorf("tsim: pattern width %d/%d does not match %d inputs",
			len(p.V1), len(p.V2), len(c.Inputs))
	}
	return nil
}
