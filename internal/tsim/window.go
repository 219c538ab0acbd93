package tsim

import (
	"math"

	"repro/internal/circuit"
)

// Window holds one circuit instance's observation windows for
// captures at clk (DESIGN.md §20, "Observation windows"). With
// minDown(g) and maxDown(g) the shortest and longest delays from gate
// g to any output (0 at an output, ±Inf when g reaches none), a
// capture at clk reads g only at instants in [lo[g], hi[g]] =
// [clk − maxDown(g), clk − minDown(g)]. A run given a Window (see
// Options) therefore builds each gate's waveform only up to hi[g], and
// a defect pass treats a gate as unchanged when its waveform agrees
// with the baseline's at lo[g] and on (lo[g], hi[g]]. The captures
// are those of the run without the window, bit for bit.
//
// NewWindow precomputes the circuit's part once; Set fills in one
// instance's windows. A Window is not safe for concurrent use, and it
// must not be Set again while a baseline run under it is still in use.
type Window struct {
	// order lists the gates that reach an output in reverse
	// topological order: when a gate is visited, every gate it drives
	// is final.
	order []int32
	// fan[fanOff[g]:fanOff[g+1]] are gate g's arcs to gates that reach
	// an output.
	fanOff []int32
	fan    []winArc
	isOut  []bool
	// slack[g] is 2^-32 times the largest number of arcs from g to an
	// output; Set widens g's bounds by slack[g]·(|clk| + maxDown(g)).
	slack []float64

	minDown, maxDown []float64
	hi, lo           []float64
}

// winArc is one arc out of a gate: the delay delays[id] runs to gate to.
type winArc struct {
	to, id int32
}

// NewWindow returns a Window for circuit c. The windows of gates that
// reach an output are empty until Set; those of the others are empty
// for good.
func NewWindow(c *circuit.Circuit) *Window {
	n := len(c.Gates)
	w := &Window{
		fanOff:  make([]int32, n+1),
		isOut:   make([]bool, n),
		slack:   make([]float64, n),
		minDown: make([]float64, n),
		maxDown: make([]float64, n),
		hi:      make([]float64, n),
		lo:      make([]float64, n),
	}
	for g := 0; g < n; g++ {
		w.minDown[g], w.maxDown[g] = math.Inf(1), math.Inf(-1)
		w.hi[g], w.lo[g] = math.Inf(-1), math.Inf(1)
	}
	for _, o := range c.Outputs {
		w.isOut[o] = true
	}
	observed := make([]bool, n)
	rank := make([]int, n)
	for k := len(c.Order) - 1; k >= 0; k-- {
		g := c.Order[k]
		observed[g] = w.isOut[g]
		for _, h := range c.Gates[g].Fanout {
			if observed[h] {
				observed[g] = true
				rank[g] = max(rank[g], rank[h]+1)
			}
		}
		if observed[g] {
			w.order = append(w.order, int32(g))
			w.slack[g] = 0x1p-32 * float64(rank[g])
		}
	}
	for _, a := range c.Arcs {
		if observed[a.To] {
			w.fanOff[a.From+1]++
		}
	}
	for g := 0; g < n; g++ {
		w.fanOff[g+1] += w.fanOff[g]
	}
	w.fan = make([]winArc, w.fanOff[n])
	next := append([]int32(nil), w.fanOff[:n]...)
	for _, a := range c.Arcs {
		if observed[a.To] {
			w.fan[next[a.From]] = winArc{to: int32(a.To), id: int32(a.ID)}
			next[a.From]++
		}
	}
	return w
}

// fanout returns gate g's arcs to gates that reach an output.
func (w *Window) fanout(g circuit.GateID) []winArc {
	return w.fan[w.fanOff[g]:w.fanOff[g+1]]
}

// differs reports whether a pin fed by waveform a through delay da and
// one fed by b through db can hold different values at some instant of
// gate h's window, capped at horizon. a and b are right-continuous
// waveforms from the same initial value, so a pin's value at t is the
// parity of its arrivals at or before t. The pins agree on the window
// when the same number of arrivals, mod 2, lie at or below its lower
// end and the arrivals inside it are the same; differs reports any
// other case, so it errs only toward "differs". The arrival times are
// the sums rebuild forms.
//
//ddd:hot
func (w *Window) differs(a, b []Step, da, db float64, h circuit.GateID, horizon float64) bool {
	lo, hi := w.lo[h], min(horizon, w.hi[h])
	i, j := 0, 0
	for i < len(a) && a[i].T+da <= lo {
		i++
	}
	for j < len(b) && b[j].T+db <= lo {
		j++
	}
	if (i-j)&1 != 0 {
		return true
	}
	for ; i < len(a) && j < len(b); i, j = i+1, j+1 {
		ta, tb := a[i].T+da, b[j].T+db
		if ta > hi || tb > hi {
			return (ta <= hi) != (tb <= hi)
		}
		if ta != tb || a[i].V != b[j].V { //lint:ignore floateq arrivals match exactly or the pins are taken to differ
			return true
		}
	}
	return i < len(a) && a[i].T+da <= hi || j < len(b) && b[j].T+db <= hi
}

// Set computes the windows of the instance with the given per-arc
// delays (nonnegative, as sampled) for captures at clk, in one
// backward pass over the gates that reach an output: each gate's
// minDown and maxDown from those of the gates it drives, then its
// bounds. Each bound is widened outward by a slack that grows by one
// step per arc from the outputs, the step being 2^-32 of the largest
// magnitude the kernel's sums through the gate reach, far above their
// few ulps of rounding. Rounding therefore never makes a window
// narrower than its driven gates need (TestWindowSlackNests); a wider
// window only prunes less. A clk that is not finite leaves every
// observed gate's window unbounded.
//
//ddd:hot
func (w *Window) Set(delays []float64, clk float64) {
	bounded := !math.IsInf(clk, 0) && !math.IsNaN(clk)
	scale := math.Abs(clk)
	minDown, maxDown := w.minDown, w.maxDown
	for _, g := range w.order {
		short, long := math.Inf(1), math.Inf(-1)
		if w.isOut[g] {
			short, long = 0, 0
		}
		for _, a := range w.fan[w.fanOff[g]:w.fanOff[g+1]] {
			d := delays[a.id]
			short = min(short, d+minDown[a.to])
			long = max(long, d+maxDown[a.to])
		}
		minDown[g], maxDown[g] = short, long
		if !bounded {
			w.hi[g], w.lo[g] = math.Inf(1), math.Inf(-1)
			continue
		}
		slack := w.slack[g] * (scale + long)
		w.hi[g] = clk - short + slack
		w.lo[g] = clk - long - slack
	}
}
