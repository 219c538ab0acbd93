// Package tsim is the timed (waveform-level) simulator behind the
// paper's statistical dynamic timing simulation (Definition D.5).
// Given a fixed-delay circuit instance and a two-vector pattern, it
// propagates transitions under the transport-delay model and samples
// every primary output at the cut-off period clk — exactly what a
// capture flop does. A pattern fails an output when the sampled value
// differs from the settled (logic-domain) value, which makes the error
// semantics of the behavior matrix B and of the critical probabilities
// crt_ij identical by construction.
//
// Timing model: each pin-to-pin arc is a pure transport delay line into
// an instantaneous boolean function, i.e. the output of gate g at time
// t is f(x_1(t-d_1), ..., x_n(t-d_n)) where d_k is the delay of the arc
// into pin k. This evaluates late-arriving short paths and
// early-arriving long paths correctly, including hazards (glitches),
// which a capture at clk observes just as silicon would.
//
// One kernel runs every simulation (incremental.go): gates are visited
// in level order, and each visited gate's right-continuous output
// waveform is rebuilt from its drivers' waveforms, with no event
// queue. A full run (Run, RunSettled) seeds it at the fan-out of the
// inputs that toggle, against an all-quiet baseline; the
// difference-propagation run (RunDefectDiff) seeds it at a defect arc
// against a recorded baseline and re-evaluates only the gates whose
// waveform the defect changes — the optimization that makes
// per-suspect fault dictionary construction tractable. Defect overlays
// (extra delay on one arc, the single-defect model D_s) never copy the
// instance.
//
// A run may be given the instance's observation windows (Window,
// window.go): gate g can change a capture at clk only inside
// [clk − maxDown(g), clk − minDown(g)], where maxDown and minDown are
// its longest and shortest delays to an output. Such a run builds each
// waveform only up to its window's upper end, and its defect passes
// compare inside windows, so "quiet" and "unchanged" mean quiet and
// unchanged up to, or inside, the gate's window. Captures are exactly
// those of the run without windows.
package tsim

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// NoDefect marks the absence of a defect overlay.
const NoDefect circuit.ArcID = -1

// Options configures one timed simulation run.
type Options struct {
	// Horizon is the capture time (the cut-off period clk).
	// Transitions later than Horizon cannot change captured values and
	// are not simulated. Use math.Inf(1) to simulate to quiescence.
	Horizon float64
	// DefectArc, if not NoDefect, adds DefectExtra to that arc's delay.
	DefectArc   circuit.ArcID
	DefectExtra float64
	// Window, if not nil, holds the observation windows Set for the
	// run's delays (without the defect) and Horizon. The run then
	// builds each gate's waveform only up to the upper end of its
	// window, and defect passes against it compare inside the window.
	// Captures are unchanged; waveforms are exact only up to their
	// window's upper end. nil simulates every gate up to Horizon.
	Window *Window
}

// Step is one transition in a recorded waveform.
type Step struct {
	T float64
	V bool
}

// endsAt returns the value a waveform from init ends at: its last
// step's value, or init when it has none.
func endsAt(w []Step, init bool) bool {
	if len(w) > 0 {
		return w[len(w)-1].V
	}
	return init
}

// Result reports one timed simulation. Results are owned by the
// Engine that produced them and alias its scratch buffers: a Result is
// valid until the producing engine's next Run or RunSettled, after
// which its contents are overwritten. Callers that need to retain data
// across runs must copy it out.
type Result struct {
	// Capture[i] is the value of output i sampled at the horizon.
	Capture []bool
	// Init and Final are the settled gate values under V1 and V2.
	Init, Final []bool
	// w holds every gate's waveform up to the horizon, or up to the
	// upper end of its window under win.
	w   *waves
	win *Window
}

// Waveform returns gate g's right-continuous waveform up to the
// horizon (under a Window, up to the upper end of g's window): one
// step per instant at which its value changes, in time order, starting
// from Init[g]. Same-instant (zero-width) toggles are not steps. The
// slice aliases engine scratch, like the Result.
func (r *Result) Waveform(g circuit.GateID) []Step {
	w, _ := r.w.get(g)
	return w
}

// Transitioned reports whether gate g's output changed within the
// horizon (under a Window, within the upper end of g's window), i.e.
// whether its waveform has a step.
func (r *Result) Transitioned(g circuit.GateID) bool {
	return len(r.Waveform(g)) > 0
}

// FailingOutputs returns indices of outputs whose captured value
// differs from the settled (logic-correct) value — the entries that
// would be 1 in the behavior matrix B for this pattern.
func (r *Result) FailingOutputs(c *circuit.Circuit) []int {
	var fails []int
	for i, o := range c.Outputs {
		if r.Capture[i] != r.Final[o] {
			fails = append(fails, i)
		}
	}
	return fails
}

// counter is one gate's row of the counting evaluator: instead of
// re-evaluating a gate's function over its pin values at every
// instant, the kernel maintains the number of pins currently holding
// the counted value, and derives the output from that counter in O(1).
// Each field is read from the gate's row in the circuit's cell table
// (circuit.CellType.Counted, Class and Inverting), so the evaluator
// covers the whole cell library:
//
//	controlled, buffer  output = (count != 0) == counted, then inverted
//	parity              output = (count&1 == 1), then inverted
//
// This is the standard input-count technique of gate-level
// simulation; it computes the identical boolean function.
type counter struct {
	cv     bool // the counted input value
	parity bool // the output is the count's parity
	inv    bool // invert the class output
}

// Engine holds per-goroutine scratch state for repeated simulations of
// one circuit. Engines are not safe for concurrent use; create one per
// worker.
type Engine struct {
	c   *circuit.Circuit
	ctr []counter
	// Gate g's input pins k = finOff[g] … finOff[g+1]−1 are driven by
	// fin[k] through arc k; its fan-out gates are
	// fout[foutOff[g]:foutOff[g+1]]. The circuit's own flat tables
	// (circuit.FaninTable, FanoutTable), read by the kernel's inner
	// loops.
	finOff, foutOff []int32
	fin, fout       []circuit.GateID
	// run holds the waveforms of the last Run; diff those the last
	// RunDefectDiff rebuilt. The two are disjoint, so the kernel may
	// run against a baseline recorded by the same engine.
	run, diff waves
	queue     worklist
	arr       []arrival // rebuild's merged pin arrivals
	// iv holds the intervals of the last diffs: the seed's, then each
	// gate a defect pass rebuilds.
	iv []span

	// outIdx[g] is gate g's index in c.Outputs, or -1; changed lists
	// the outputs the last RunDefectDiff changed. Each output gate is
	// kept at most once per pass, so changed never outgrows its
	// preallocated len(c.Outputs).
	outIdx  []int32
	changed []int

	// res and the settled-value and capture buffers are reused across
	// runs, making steady-state simulation allocation-free.
	res        Result
	initBuf    []bool
	finalBuf   []bool
	captureBuf []bool
}

// NewEngine returns an Engine for circuit c.
func NewEngine(c *circuit.Circuit) *Engine {
	n := len(c.Gates)
	e := &Engine{
		c:          c,
		ctr:        make([]counter, n),
		run:        newWaves(n),
		diff:       newWaves(n),
		queue:      newWorklist(c),
		outIdx:     make([]int32, n),
		changed:    make([]int, 0, len(c.Outputs)),
		captureBuf: make([]bool, len(c.Outputs)),
	}
	for g := range e.outIdx {
		e.outIdx[g] = -1
	}
	for i, o := range c.Outputs {
		e.outIdx[o] = int32(i)
	}
	e.finOff, e.fin = c.FaninTable()
	e.foutOff, e.fout = c.FanoutTable()
	for g := range c.Gates {
		t := c.Gates[g].Type
		e.ctr[g] = counter{cv: t.Counted(), parity: t.Class() == circuit.ClassParity, inv: t.Inverting()}
	}
	return e
}

// arcDelay resolves an arc's effective delay under the defect overlay.
func arcDelay(delays []float64, opts *Options, a circuit.ArcID) float64 {
	d := delays[a]
	if a == opts.DefectArc {
		d += opts.DefectExtra
	}
	return d
}

// Run simulates pattern pair p on the instance with the given per-arc
// delays. The returned Result aliases Engine scratch except where
// documented; it is valid until the next run of this engine.
func (e *Engine) Run(delays []float64, p logicsim.PatternPair, opts Options) *Result {
	e.initBuf = logicsim.EvalInto(e.initBuf, e.c, p.V1)
	e.finalBuf = logicsim.EvalInto(e.finalBuf, e.c, p.V2)
	return e.RunSettled(delays, p, opts, e.initBuf, e.finalBuf)
}

// RunSettled is Run with the settled gate values under V1 and V2
// supplied by the caller (init and final must equal logicsim.Eval of
// p.V1 and p.V2). The settled states depend only on the pattern, not
// on the instance delays, so loops that sweep many instances over the
// same pattern hoist the two logic evaluations out of the per-instance
// path. Result ownership matches Run.
//
// The run is one kernel pass against an all-quiet baseline: each input
// that toggles gets one step at t = 0 and queues its fan-out, so gates
// no toggling input reaches are never visited. Under opts.Window an
// input whose window ends before 0 stays quiet.
//
//ddd:hot
func (e *Engine) RunSettled(delays []float64, p logicsim.PatternPair, opts Options, init, final []bool) *Result {
	c := e.c
	w := &e.run
	w.reset()
	e.queue.reset()
	for i, g := range c.Inputs {
		if p.V1[i] == p.V2[i] || opts.Window != nil && opts.Window.hi[g] < 0 {
			continue
		}
		w.steps = append(w.steps, Step{T: 0, V: p.V2[i]})
		w.keep(g, len(w.steps)-1)
		e.pushFanout(nil, g, delays, &opts)
	}
	e.propagate(w, nil, init, delays, &opts)

	res := &e.res
	*res = Result{
		Capture: e.captureBuf,
		Init:    init,
		Final:   final,
		w:       w,
		win:     opts.Window,
	}
	for i, o := range c.Outputs {
		s, _ := w.get(o)
		res.Capture[i] = endsAt(s, init[o])
	}
	return res
}

// Simulate is the convenience one-shot form of Engine.Run.
func Simulate(c *circuit.Circuit, delays []float64, p logicsim.PatternPair, opts Options) *Result {
	return NewEngine(c).Run(delays, p, opts)
}

// Quiescent returns Options that simulate to quiescence (infinite
// horizon) with no defect.
func Quiescent() Options {
	return Options{Horizon: math.Inf(1), DefectArc: NoDefect}
}

// AtClock returns Options that capture at clk with no defect.
func AtClock(clk float64) Options {
	return Options{Horizon: clk, DefectArc: NoDefect}
}
