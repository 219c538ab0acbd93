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
// waveform w, the arc delay d, the cursor i into w, the arrival time
// next of step w[i] (+Inf once no step is pending up to the limit) and
// the pin's current value v.
type pinCursor struct {
	w    []Step
	d    float64
	i    int
	next float64
	v    bool
}

// RunDefectDiff returns the outputs captured at horizon by a run of
// base's pattern and delays with defect overlay (defectArc, extra),
// re-evaluating only the gates whose waveform the defect changes.
// base must come from a Run on the same delays and horizon; it may
// come from this engine. The pass runs under base's Window, if any,
// which must not have been Set again since. DefectWaveform reads the
// defective waveforms after the call.
//
// The kernel pass is seeded at defectArc.To against base's waveforms:
// each visited gate's waveform is rebuilt from its drivers' (the
// rebuilt waveform of a changed driver, the baseline waveform of every
// other), and its fan-out is visited only if the rebuilt waveform
// differs from the baseline. Outputs never reached keep base.Capture.
// Under a Window, "differs" is read inside windows: a gate is changed
// when its waveform differs inside its own window, and a fan-out gate
// is visited only when the changed driver differs inside the fan-out's
// window as its pin sees it. The seed itself is skipped when the
// defect arc's shifted arrivals differ nowhere inside To's window. The
// captures equal a full Run with the overlay (DESIGN.md §20).
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
	opts := Options{Horizon: horizon, DefectArc: defectArc, DefectExtra: extra, Window: base.win}
	e.diff.reset()
	a := &c.Arcs[defectArc]
	if win := opts.Window; win != nil {
		// The defect moves its driver's arrivals at To from d to
		// d + extra; if To cannot see that, nothing changes.
		w, _ := base.w.get(a.From)
		if !win.differs(w, w, delays[defectArc], arcDelay(delays, &opts, defectArc), a.To, horizon) {
			copy(e.diffCapture, base.Capture)
			return e.diffCapture
		}
	}
	e.queue.reset()
	e.queue.push(a.To)
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
// false otherwise. Under a Window the waveform is exact only inside
// g's window: its value at the lower end and its steps above it. The
// slice is valid as long as both the RunDefectDiff answer and base
// are.
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
// a nil base is all quiet. Under opts.Window a defect pass (non-nil
// base) compares only inside windows: a gate is kept when it differs
// inside its own window, and queues only the fan-out whose window it
// differs in (pushFanout). A full run compares whole waveforms, since
// a defect pass may read a baseline step below the window
// (DESIGN.md §20).
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
			if e.rebuild(out, base, init, g, delays, opts) {
				e.pushFanout(out, base, g, delays, opts)
			}
		}
		q.byLevel[l] = q.byLevel[l][:0]
	}
}

// pushFanout queues the fan-out of gate g, whose waveform in out has
// just been kept. A full run, or a pass without a window, queues every
// fan-out gate. A defect pass under a window queues a gate h only when
// the rebuilt and baseline waveforms of g differ inside h's window as
// h's pin sees them (Window.differs); gates that reach no output are
// never queued.
//
//ddd:hot
func (e *Engine) pushFanout(out, base *waves, g circuit.GateID, delays []float64, opts *Options) {
	win := opts.Window
	if win == nil || base == nil {
		for _, h := range e.fout[e.foutOff[g]:e.foutOff[g+1]] {
			e.queue.push(circuit.GateID(h))
		}
		return
	}
	nw, _ := out.get(g)
	bw, _ := base.get(g)
	for _, a := range win.fanout(g) {
		d := arcDelay(delays, opts, circuit.ArcID(a.id))
		if win.differs(nw, bw, d, d, circuit.GateID(a.to), opts.Horizon) {
			e.queue.push(circuit.GateID(a.to))
		}
	}
}

// rebuild computes gate g's right-continuous output waveform up to
// the horizon (under a Window, up to the upper end of g's window) at
// the end of out.steps and reports whether it differs from g's
// baseline waveform. A differing waveform is kept in out; one equal to
// the baseline is discarded.
//
//ddd:hot
func (e *Engine) rebuild(out, base *waves, init []bool, g circuit.GateID, delays []float64, opts *Options) bool {
	limit := opts.Horizon
	if opts.Window != nil {
		limit = min(limit, opts.Window.hi[g])
	}
	md := e.gmode[g]
	cv := md&gmCV != 0
	pins := e.pins[:0]
	var cnt int16
	// t is the next instant: the earliest pending arrival on any pin.
	t := math.Inf(1)
	for k := e.finOff[g]; k < e.finOff[g+1]; k++ {
		fi := circuit.GateID(e.fin[k])
		v := init[fi]
		if v == cv {
			cnt++
		}
		w, ok := out.get(fi)
		if !ok && base != nil {
			w, _ = base.get(fi)
		}
		if len(w) > 0 {
			d := arcDelay(delays, opts, circuit.ArcID(e.finArc[k]))
			next := w[0].T + d
			if next > limit {
				next = math.Inf(1)
			}
			pins = append(pins, pinCursor{w: w, d: d, next: next, v: v})
			t = min(t, next)
		}
	}
	e.pins = pins

	val := init[g]
	off := len(out.steps)
	for !math.IsInf(t, 1) {
		// Apply every arrival at t (a pin's last one wins) and find the
		// next instant. No pending arrival is earlier than t, so
		// "<= t" and "> t" below are exact same-instant tests.
		nt := math.Inf(1)
		for i := range pins {
			p := &pins[i]
			if p.next <= t {
				v := p.v
				for {
					v = p.w[p.i].V
					p.i++
					if p.i == len(p.w) {
						p.next = math.Inf(1)
						break
					}
					if ta := p.w[p.i].T + p.d; ta > t {
						p.next = ta
						if ta > limit {
							p.next = math.Inf(1)
						}
						break
					}
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
			nt = min(nt, p.next)
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
		t = nt
	}

	var bw []Step
	if base != nil {
		bw, _ = base.get(g)
	}
	nw := out.steps[off:]
	var same bool
	if opts.Window != nil && base != nil {
		same = !opts.Window.differs(nw, bw, 0, 0, g, opts.Horizon)
	} else {
		same = sameWaveform(nw, bw)
	}
	if same {
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
