package tsim

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// diffState is the scratch of RunDefectDiff, allocated on an engine's
// first defect re-simulation and reused by every later one. It is
// disjoint from the event-run scratch, so the kernel may run on the
// engine that produced its baseline.
type diffState struct {
	// gen identifies the current call: a gate is in the worklist when
	// queued[g] == gen, and has a waveform that differs from the
	// baseline when changed[g] == gen. Stamping replaces a per-call
	// clear of both arrays.
	gen     uint32
	queued  []uint32
	changed []uint32
	// The rebuilt waveform of a changed gate g is steps[off[g]:end[g]].
	off, end []int32
	steps    []Step
	// byLevel[l] holds the queued gates of level l (circuit.Levels).
	byLevel [][]circuit.GateID
	pins    []diffPin
	capture []bool
}

// diffPin is one input pin of the gate being rebuilt: its driver's
// waveform w, the arc delay d, the cursor i into w and the pin's
// current value v.
type diffPin struct {
	w []Step
	d float64
	i int
	v bool
}

// RunDefectDiff returns the outputs captured at horizon by a run of
// base's pattern and delays with defect overlay (defectArc, extra),
// re-evaluating only the gates whose waveform the defect changes.
// base must come from a Run on the same delays and horizon with
// RecordWaveforms set.
//
// The kernel walks gates in increasing level order from
// defectArc.To. Each visited gate's output waveform is rebuilt from
// its inputs: the rebuilt waveform of a changed driver, the baseline
// waveform of every other. Its fan-out is visited only if the
// rebuilt waveform differs from the baseline. Outputs never reached
// keep base.Capture.
//
// Under the transport-delay model a gate's value just after time t
// depends only on its drivers' values just after t − d_k. Waveforms
// are therefore rebuilt and compared as right-continuous step
// functions: all pin arrivals at one instant are applied before the
// gate is evaluated. The event engine's zero-width same-instant
// toggles are thus dropped without changing a captured value. Arrival
// times are st.T + d, the float sum the event engine schedules with,
// so the captures are bit-identical to a full Run with the overlay
// (DESIGN.md §20).
//
// The returned slice is engine-owned and valid until the next
// RunDefectDiff on this engine; event runs do not touch it.
//
//ddd:hot
func (e *Engine) RunDefectDiff(delays []float64, base *Result, defectArc circuit.ArcID, extra, horizon float64) []bool {
	if base.Waveforms == nil {
		panic("tsim: RunDefectDiff requires a baseline with recorded waveforms")
	}
	c := e.c
	d := e.diffScratch()
	opts := Options{Horizon: horizon, DefectArc: defectArc, DefectExtra: extra}
	d.steps = d.steps[:0]

	start := c.Arcs[defectArc].To
	lo := c.Levels[start]
	hi := lo
	d.queued[start] = d.gen
	d.byLevel[lo] = append(d.byLevel[lo], start)
	for l := lo; l <= hi; l++ {
		// Fan-out lies at strictly higher levels, so level l does not
		// grow while it is walked.
		for _, g := range d.byLevel[l] {
			if !e.rebuild(d, g, delays, &opts, base) {
				continue
			}
			d.changed[g] = d.gen
			for _, h := range c.Gates[g].Fanout {
				if d.queued[h] == d.gen {
					continue
				}
				d.queued[h] = d.gen
				lh := c.Levels[h]
				d.byLevel[lh] = append(d.byLevel[lh], h)
				if lh > hi {
					hi = lh
				}
			}
		}
		d.byLevel[l] = d.byLevel[l][:0]
	}

	for i, o := range c.Outputs {
		if d.changed[o] != d.gen {
			d.capture[i] = base.Capture[i]
			continue
		}
		v := base.Init[o]
		if d.end[o] > d.off[o] {
			v = d.steps[d.end[o]-1].V
		}
		d.capture[i] = v
	}
	return d.capture
}

// diffScratch returns the engine's kernel scratch, allocating it on
// first use, and opens a new stamp generation.
func (e *Engine) diffScratch() *diffState {
	d := e.diff
	if d == nil {
		n := len(e.c.Gates)
		d = &diffState{
			queued:  make([]uint32, n),
			changed: make([]uint32, n),
			off:     make([]int32, n),
			end:     make([]int32, n),
			byLevel: make([][]circuit.GateID, e.c.Depth()+1),
			capture: make([]bool, len(e.c.Outputs)),
		}
		e.diff = d
	}
	d.gen++
	if d.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(d.queued)
		clear(d.changed)
		d.gen = 1
	}
	return d
}

// rebuild computes gate g's right-continuous output waveform up to
// the horizon into d.steps and reports whether it differs from g's
// baseline waveform. A waveform equal to the baseline is discarded.
//
//ddd:hot
func (e *Engine) rebuild(d *diffState, g circuit.GateID, delays []float64, opts *Options, base *Result) bool {
	gate := &e.c.Gates[g]
	md := e.gmode[g]
	cv := md&gmCV != 0
	pins := d.pins[:0]
	var cnt int16
	for k, fi := range gate.Fanin {
		v := base.Init[fi]
		if v == cv {
			cnt++
		}
		w := base.Waveforms[fi]
		if d.changed[fi] == d.gen {
			w = d.steps[d.off[fi]:d.end[fi]]
		}
		if len(w) > 0 {
			pins = append(pins, diffPin{w: w, d: arcDelay(delays, opts, gate.InArcs[k]), v: v})
		}
	}
	d.pins = pins

	out := base.Init[g]
	off := len(d.steps)
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
		// Apply every arrival at t; a pin's last one wins, as in the
		// event engine's (t, seq) order.
		for i := range pins {
			p := &pins[i]
			v := p.v
			for p.i < len(p.w) && p.w[p.i].T+p.d == t { //lint:ignore floateq arrivals at one instant must group on the exact float time the event engine schedules them at
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
		if nv != out {
			d.steps = append(d.steps, Step{T: t, V: nv})
			out = nv
		}
	}

	if sameWaveform(d.steps[off:], base.Waveforms[g], base.Init[g]) {
		d.steps = d.steps[:off]
		return false
	}
	d.off[g] = int32(off)
	d.end[g] = int32(len(d.steps))
	return true
}

// sameWaveform reports whether the right-continuous waveform rc (one
// step per instant, each a change) equals the recorded waveform raw
// starting from init. Steps of raw at one instant collapse to their
// last value, and a collapsed step that leaves the value unchanged
// (a zero-width toggle) is dropped.
func sameWaveform(rc, raw []Step, init bool) bool {
	i := 0
	prev := init
	for j := 0; j < len(raw); {
		t, v := raw[j].T, raw[j].V
		for j++; j < len(raw) && raw[j].T == t; j++ { //lint:ignore floateq same-instant steps are exactly equal times by construction
			v = raw[j].V
		}
		if v == prev {
			continue
		}
		prev = v
		if i == len(rc) || rc[i].T != t || rc[i].V != v { //lint:ignore floateq waveform identity is exact: both sides are the same float sums
			return false
		}
		i++
	}
	return i == len(rc)
}

// CheckPair validates that a pattern pair matches the circuit's input
// width, returning a descriptive error instead of the panic that the
// simulators would raise.
func CheckPair(c *circuit.Circuit, p logicsim.PatternPair) error {
	if len(p.V1) != len(c.Inputs) || len(p.V2) != len(c.Inputs) {
		return fmt.Errorf("tsim: pattern width %d/%d does not match %d inputs",
			len(p.V1), len(p.V2), len(c.Inputs))
	}
	return nil
}
