package tsim

import (
	"fmt"
	"math"
	"slices"

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

// arrival is one pin arrival of the gate being rebuilt: at time t the
// pin toggles, to the counted value when up.
type arrival struct {
	t  float64
	up bool
}

// span is an interval [lo, hi) on which two pins differ.
type span struct{ lo, hi float64 }

// diffs returns, in dst's storage, the time-ordered intervals on which
// a pin fed by waveform a through delay da and one fed by b through db
// hold different values. a and b are right-continuous waveforms from
// the same initial value, each step a toggle, so the pins differ at t
// when an odd number of arrivals at or before t separates them. All
// arrivals at one instant apply together, so same-instant toggles of
// one pin cancel and every interval is nonempty. The arrival times are
// the sums rebuild forms.
//
//ddd:hot
func diffs(dst []span, a []Step, da float64, b []Step, db float64) []span {
	dst = dst[:0]
	for i, j := 0, 0; i < len(a) || j < len(b); {
		t := math.Inf(1)
		if i < len(a) {
			t = a[i].T + da
		}
		if j < len(b) {
			t = min(t, b[j].T+db)
		}
		was := (i-j)&1 != 0
		for i < len(a) && a[i].T+da <= t {
			i++
		}
		for j < len(b) && b[j].T+db <= t {
			j++
		}
		switch now := (i-j)&1 != 0; {
		case now && !was:
			dst = append(dst, span{lo: t, hi: math.Inf(1)})
		case was && !now:
			dst[len(dst)-1].hi = t
		}
	}
	return dst
}

// RunDefectDiff re-simulates base's pattern and delays with defect
// overlay (defectArc, extra) up to horizon, re-evaluating only the
// gates whose waveform the defect changes, and returns the indices
// (into c.Outputs) of the outputs whose waveform it changed. base must
// come from a Run on the same delays and horizon; it may come from
// this engine. The pass runs under base's Window, if any, which must
// not have been Set again since. DefectWaveform reads the defective
// waveforms after the call.
//
// The kernel pass is seeded at defectArc.To against base's waveforms:
// each visited gate's waveform is rebuilt from its drivers' (the
// rebuilt waveform of a changed driver, the baseline waveform of every
// other), and its fan-out is visited only if the rebuilt waveform
// differs from the baseline. The intervals on which the two differ
// (diffs) are computed once per rebuilt gate, and under a Window they
// are read inside windows (Window.sees): a gate is changed when they
// meet its own window, and a fan-out gate is visited only when they
// meet the fan-out's window as its pin sees them. The seed itself is
// skipped when the defect arc's shifted arrivals differ from the
// baseline's nowhere To can see.
//
// DefectCapture reads each output's capture under the defect: an
// unlisted output keeps base.Capture, and a listed one may still
// capture it. The captures equal a full Run with the overlay
// (DESIGN.md §20). The list is in the pass's level order.
//
// The returned slice is engine-owned and valid until the next
// RunDefectDiff on this engine; full runs do not touch it.
//
//ddd:hot
func (e *Engine) RunDefectDiff(delays []float64, base *Result, defectArc circuit.ArcID, extra, horizon float64) []int {
	if base.w == nil {
		panic("tsim: RunDefectDiff requires a baseline produced by Run")
	}
	opts := Options{Horizon: horizon, DefectArc: defectArc, DefectExtra: extra, Window: base.win}
	e.diff.reset()
	e.changed = e.changed[:0]
	a := &e.c.Arcs[defectArc]
	// The defect moves its driver's arrivals at To from d to d + extra;
	// if To cannot see that, nothing changes.
	w, _ := base.w.get(a.From)
	e.iv = diffs(e.iv, w, delays[defectArc], w, arcDelay(delays, &opts, defectArc))
	if !opts.Window.sees(e.iv, 0, a.To, horizon) {
		return e.changed
	}
	e.queue.reset()
	e.queue.push(a.To)
	e.propagate(&e.diff, base.w, base.Init, delays, &opts)
	return e.changed
}

// DefectCapture returns output oi's capture at the horizon under the
// defect of this engine's last RunDefectDiff, which ran against base:
// where its rebuilt waveform ends (its last step's value, or its
// initial value when it has none) when the pass changed it, and
// base.Capture[oi] otherwise.
func (e *Engine) DefectCapture(base *Result, oi int) bool {
	o := e.c.Outputs[oi]
	if w, changed := e.diff.get(o); changed {
		return endsAt(w, base.Init[o])
	}
	return base.Capture[oi]
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
// a nil base is all quiet. A defect pass (non-nil base) also lists
// each kept output in e.changed. Under opts.Window a defect pass (non-nil
// base) compares only inside windows: a gate is kept when it differs
// inside its own window, and queues only the fan-out whose window it
// differs in (pushFanout). A full run keeps every gate that steps,
// since a defect pass may read a baseline step below the window
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
				if oi := e.outIdx[g]; oi >= 0 && base != nil {
					e.changed = append(e.changed, int(oi))
				}
				e.pushFanout(base, g, delays, opts)
			}
		}
		q.byLevel[l] = q.byLevel[l][:0]
	}
}

// pushFanout queues the fan-out of gate g, whose waveform has just
// been kept. A full run (nil base), or a pass without a window, queues
// every fan-out gate. A defect pass under a window queues a gate h
// only when it sees, through its arc's delay, the intervals e.iv on
// which g's rebuilt waveform differs from its baseline; gates that
// reach no output are never queued.
//
//ddd:hot
func (e *Engine) pushFanout(base *waves, g circuit.GateID, delays []float64, opts *Options) {
	win := opts.Window
	if win == nil || base == nil {
		for _, h := range e.fout[e.foutOff[g]:e.foutOff[g+1]] {
			e.queue.push(h)
		}
		return
	}
	for _, a := range win.fan[win.fanOff[g]:win.fanOff[g+1]] {
		if win.sees(e.iv, arcDelay(delays, opts, circuit.ArcID(a.id)), circuit.GateID(a.to), opts.Horizon) {
			e.queue.push(circuit.GateID(a.to))
		}
	}
}

// rebuild computes gate g's right-continuous output waveform up to
// the horizon (under a Window, up to the upper end of g's window) at
// the end of out.steps and reports whether it differs from g's
// baseline waveform. A differing waveform is kept in out, and in a
// defect pass e.iv holds the intervals on which it differs; one equal
// to the baseline is discarded.
//
// The waveform is swept from one time-ordered list of every pin
// arrival up to the limit. Each arrival toggles its pin, so it moves
// the count of pins at the counted value by one; all arrivals at one
// instant are applied before the gate is evaluated.
//
//ddd:hot
func (e *Engine) rebuild(out, base *waves, init []bool, g circuit.GateID, delays []float64, opts *Options) bool {
	limit := opts.Horizon
	if opts.Window != nil {
		limit = min(limit, opts.Window.hi[g])
	}
	ctr := e.ctr[g]
	cv := ctr.cv
	arr := e.arr[:0]
	var cnt int16
	for k := e.finOff[g]; k < e.finOff[g+1]; k++ {
		fi := e.fin[k]
		if init[fi] == cv {
			cnt++
		}
		w, ok := out.get(fi)
		if !ok && base != nil {
			w, _ = base.get(fi)
		}
		// Merge the pin's arrivals up to the limit into arr from the
		// back; a tie keeps the earlier pin's arrival first.
		d := arcDelay(delays, opts, circuit.ArcID(k))
		j := len(w) - 1
		for j >= 0 && w[j].T+d > limit {
			j--
		}
		i := len(arr) - 1
		arr = slices.Grow(arr, j+1)[:len(arr)+j+1]
		for o := len(arr) - 1; j >= 0; o-- {
			if t := w[j].T + d; i >= 0 && arr[i].t > t {
				arr[o] = arr[i]
				i--
			} else {
				arr[o] = arrival{t: t, up: w[j].V == cv}
				j--
			}
		}
	}
	e.arr = arr

	val := init[g]
	off := len(out.steps)
	for i := 0; i < len(arr); {
		// arr is sorted, so "<= t" is the same-instant test.
		t := arr[i].t
		for ; i < len(arr) && arr[i].t <= t; i++ {
			if arr[i].up {
				cnt++
			} else {
				cnt--
			}
		}
		nv := (cnt != 0) == cv
		if ctr.parity {
			nv = cnt&1 == 1
		}
		nv = nv != ctr.inv
		if nv != val {
			out.steps = append(out.steps, Step{T: t, V: nv})
			val = nv
		}
	}

	nw := out.steps[off:]
	keep := len(nw) > 0
	if base != nil {
		bw, _ := base.get(g)
		e.iv = diffs(e.iv, nw, 0, bw, 0)
		keep = opts.Window.sees(e.iv, 0, g, opts.Horizon)
	}
	if !keep {
		out.steps = out.steps[:off]
		return false
	}
	out.keep(g, off)
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
