package tsim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// randPair draws a uniformly random two-vector pattern.
func randPair(r *rand.Rand, c *circuit.Circuit) logicsim.PatternPair {
	v1 := make(logicsim.Vector, len(c.Inputs))
	v2 := make(logicsim.Vector, len(c.Inputs))
	for i := range v1 {
		v1[i] = r.IntN(2) == 1
		v2[i] = r.IntN(2) == 1
	}
	return logicsim.PatternPair{V1: v1, V2: v2}
}

// mcClock is the Monte-Carlo q-quantile clock pick: the circuit-delay
// quantile of an STA run on the 0x51a9 sub-stream of seed.
func mcClock(t testing.TB, m *timing.Model, q float64, nSamples int, seed uint64) float64 {
	t.Helper()
	res, err := timing.NewMC(m).STA(context.Background(), nSamples, rng.Derive(seed, 0x51a9), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.CircuitDelay.Quantile(q)
}

// snapDelays rounds every delay to a positive multiple of grid, so
// distinct paths reach a gate at the same instant and the event oracle
// records same-instant (zero-width) toggles. grid <= 0 keeps the
// delays as sampled.
func snapDelays(delays []float64, grid float64) []float64 {
	out := make([]float64, len(delays))
	for i, d := range delays {
		if grid <= 0 {
			out[i] = d
			continue
		}
		out[i] = math.Max(grid, math.Round(d/grid)*grid)
	}
	return out
}

// zeroWidthSteps counts the raw oracle steps that share their instant
// with the step before them.
func zeroWidthSteps(res *eventResult) int {
	n := 0
	for _, w := range res.Waveforms {
		for i := 1; i < len(w); i++ {
			if w[i].T == w[i-1].T {
				n++
			}
		}
	}
	return n
}

// rightContinuous collapses a raw oracle waveform to one step per
// instant (the instant's last value), dropping steps that leave the
// value unchanged.
func rightContinuous(raw []Step, init bool) []Step {
	var out []Step
	prev := init
	for j := 0; j < len(raw); j++ {
		if j+1 < len(raw) && raw[j+1].T == raw[j].T {
			continue
		}
		if raw[j].V != prev {
			out = append(out, raw[j])
			prev = raw[j].V
		}
	}
	return out
}

// checkWaveform fails unless got equals the right-continuous form of
// the oracle's raw waveform, step times compared exactly.
func checkWaveform(t testing.TB, what string, g int, got, raw []Step, init bool) {
	t.Helper()
	ref := rightContinuous(raw, init)
	if len(got) != len(ref) {
		t.Fatalf("%s: gate %d waveform %v, oracle %v", what, g, got, ref)
	}
	for k := range got {
		if got[k] != ref[k] {
			t.Fatalf("%s: gate %d waveform %v, oracle %v", what, g, got, ref)
		}
	}
}

// checkWaveformInWindow fails unless got agrees with the
// right-continuous form of the oracle's raw waveform inside the window
// [lo, hi]: the same value at lo and the same steps in (lo, hi], step
// times compared exactly. An empty window (lo > hi) checks nothing.
func checkWaveformInWindow(t testing.TB, what string, g int, got, raw []Step, init bool, lo, hi float64) {
	t.Helper()
	if lo > hi {
		return
	}
	ref := rightContinuous(raw, init)
	at := func(w []Step) (bool, []Step) {
		v, k := init, 0
		for k < len(w) && w[k].T <= lo {
			v = w[k].V
			k++
		}
		n := k
		for n < len(w) && w[n].T <= hi {
			n++
		}
		return v, w[k:n]
	}
	gv, gs := at(got)
	rv, rs := at(ref)
	bad := gv != rv || len(gs) != len(rs)
	for k := 0; !bad && k < len(gs); k++ {
		bad = gs[k] != rs[k]
	}
	if bad {
		t.Fatalf("%s: gate %d in window [%v, %v]: waveform %v, oracle %v", what, g, lo, hi, got, ref)
	}
}

// truncate returns the steps of w at or before limit.
func truncate(w []Step, limit float64) []Step {
	n := 0
	for n < len(w) && w[n].T <= limit {
		n++
	}
	return w[:n]
}

// checkRunMatchesEvents runs p under opts on the kernel and on the
// event oracle and compares, exactly, every output's capture and
// every gate's waveform, with Transitioned read as "the
// right-continuous waveform is non-empty" and each output's last step
// against the oracle's last right-continuous one. Under opts.Window,
// which the caller has Set, each gate's waveform must equal the
// oracle's up to the upper end of its window. It returns the oracle's
// run.
func checkRunMatchesEvents(t testing.TB, c *circuit.Circuit, kern *Engine, full *eventSim, delays []float64, p logicsim.PatternPair, opts Options) *eventResult {
	t.Helper()
	got := kern.Run(delays, p, opts)
	want := full.run(delays, p, opts)
	what := fmt.Sprintf("full run arc %d extra %v clk %v windowed %v", opts.DefectArc, opts.DefectExtra, opts.Horizon, opts.Window != nil)
	for g := range c.Gates {
		w := got.Waveform(circuit.GateID(g))
		raw := want.Waveforms[g]
		if opts.Window != nil {
			raw = truncate(raw, opts.Window.hi[g])
		}
		checkWaveform(t, what, g, w, raw, want.Init[g])
		if got.Transitioned(circuit.GateID(g)) != (len(w) > 0) {
			t.Fatalf("%s: gate %d Transitioned %v with waveform %v", what, g, got.Transitioned(circuit.GateID(g)), w)
		}
	}
	for i, o := range c.Outputs {
		if got.Capture[i] != want.Capture[i] {
			t.Fatalf("%s: output %d kernel %v, oracle %v", what, i, got.Capture[i], want.Capture[i])
		}
		last := 0.0
		if rc := rightContinuous(want.Waveforms[o], want.Init[o]); len(rc) > 0 {
			last = rc[len(rc)-1].T
		}
		if got := lastStep(got, o); got != last {
			t.Fatalf("%s: output %d last step %v, oracle's last step %v", what, i, got, last)
		}
	}
	return want
}

// checkDefectDiff runs the kernel on kern against a baseline kern
// itself recorded, and compares its captures with the event oracle's
// run under the defect overlay and, with oracle set, with the
// pointwise refValue. It also checks every gate's waveform as the
// kernel left it (rebuilt or baseline) against the oracle's, step
// times compared exactly. With win set, the baseline and the defect
// pass run under win, Set here, and each waveform is checked inside
// its gate's window only. It reports whether the defect changed any
// capture.
func checkDefectDiff(t testing.TB, c *circuit.Circuit, kern *Engine, full *eventSim, delays []float64, pair logicsim.PatternPair, arc circuit.ArcID, extra, clk float64, oracle bool, win *Window) bool {
	t.Helper()
	baseOpts := AtClock(clk)
	if win != nil {
		win.Set(delays, clk)
		baseOpts.Window = win
	}
	base := kern.Run(delays, pair, baseOpts)
	baseCapture := append([]bool(nil), base.Capture...)
	got := kern.RunDefectDiff(delays, base, arc, extra, clk)

	opts := AtClock(clk)
	opts.DefectArc = arc
	opts.DefectExtra = extra
	want := full.run(delays, pair, opts)
	what := fmt.Sprintf("arc %d extra %v clk %v windowed %v", arc, extra, clk, win != nil)
	for g := range c.Gates {
		kw, _ := kern.DefectWaveform(base, circuit.GateID(g))
		if win != nil {
			checkWaveformInWindow(t, what, g, kw, want.Waveforms[g], base.Init[g], win.lo[g], min(clk, win.hi[g]))
			continue
		}
		checkWaveform(t, what, g, kw, want.Waveforms[g], base.Init[g])
	}
	changed := false
	for i, o := range c.Outputs {
		if got[i] != want.Capture[i] {
			t.Fatalf("%s: output %d kernel %v, oracle %v", what, i, got[i], want.Capture[i])
		}
		if oracle {
			if ref := refValue(c, delays, &opts, pair, o, clk); got[i] != ref {
				t.Fatalf("%s: output %d kernel %v, pointwise oracle %v", what, i, got[i], ref)
			}
		}
		changed = changed || got[i] != baseCapture[i]
	}
	return changed
}

func TestIncrementalMatchesFull(t *testing.T) {
	c, err := synth.GenerateNamed("small", 23)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	clk := mcClock(t, m, 0.9, 400, 1)
	kern, full := NewEngine(c), newEventSim(c)
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		inst := m.SampleInstance(r)
		pair := randPair(r, c)
		arc := circuit.ArcID(r.IntN(len(c.Arcs)))
		extra := 0.3 + 2*r.Float64()
		checkDefectDiff(t, c, kern, full, inst.Delays, pair, arc, extra, clk, false, nil)
	}
}

// TestDefectDiffMatchesFullOnGrid pins the kernel to the event oracle
// on instances whose delays sit on a coarse grid: dyadic grids make
// the float sums exact, so reconvergent paths tie and zero-width
// toggles occur; 0.1 makes equal real sums round apart. Every defect
// runs twice, without and with observation windows. The test also
// asserts that zero-width toggles and capture-changing defects
// occurred, so the coverage is real.
func TestDefectDiffMatchesFullOnGrid(t *testing.T) {
	c, err := synth.GenerateNamed("small", 31)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	cell := m.MeanCellDelay()
	kern, full, win := NewEngine(c), newEventSim(c), NewWindow(c)
	r := rng.New(5)
	for _, grid := range []float64{0.5, 0.25, 0.1} {
		zeroWidth, changed, changedWindowed := 0, 0, 0
		for trial := 0; trial < 120; trial++ {
			delays := snapDelays(m.SampleInstance(r).Delays, grid)
			pair := randPair(r, c)
			clk := (0.4 + 0.8*r.Float64()) * float64(c.Depth()) * cell
			if trial%2 == 0 { // on the grid: arrivals land exactly at clk
				clk = math.Round(clk/grid) * grid
			}
			zeroWidth += zeroWidthSteps(full.run(delays, pair, AtClock(clk)))
			for k := 0; k < 8; k++ {
				arc := circuit.ArcID(r.IntN(len(c.Arcs)))
				extra := math.Max(grid, math.Round(3*cell*r.Float64()/grid)*grid)
				if checkDefectDiff(t, c, kern, full, delays, pair, arc, extra, clk, false, nil) {
					changed++
				}
				if checkDefectDiff(t, c, kern, full, delays, pair, arc, extra, clk, false, win) {
					changedWindowed++
				}
			}
		}
		if zeroWidth == 0 || changed == 0 {
			t.Errorf("grid %v: %d zero-width steps, %d defects that changed a capture; want both > 0",
				grid, zeroWidth, changed)
		}
		if changedWindowed != changed {
			t.Errorf("grid %v: %d defects changed a capture without windows, %d with", grid, changed, changedWindowed)
		}
	}
}

// TestRunMatchesEventOracleOnGrid pins the kernel's full run to the
// event oracle on the grids of TestDefectDiffMatchesFullOnGrid, with
// and without a defect overlay: captures, waveforms, Transitioned and
// each output's last step must agree exactly for every gate. Every run
// is repeated under observation windows, where each waveform must be
// the oracle's cut at its window's upper end. It asserts that
// zero-width toggles occurred, the case where the two differ in their
// raw histories.
func TestRunMatchesEventOracleOnGrid(t *testing.T) {
	c, err := synth.GenerateNamed("small", 37)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	cell := m.MeanCellDelay()
	kern, full, win := NewEngine(c), newEventSim(c), NewWindow(c)
	r := rng.New(11)
	for _, grid := range []float64{0.5, 0.25, 0.1} {
		zeroWidth := 0
		for trial := 0; trial < 120; trial++ {
			delays := snapDelays(m.SampleInstance(r).Delays, grid)
			pair := randPair(r, c)
			opts := AtClock((0.4 + 0.8*r.Float64()) * float64(c.Depth()) * cell)
			switch trial % 4 {
			case 0: // on the grid: arrivals land exactly at clk
				opts.Horizon = math.Round(opts.Horizon/grid) * grid
			case 1:
				opts.Horizon = math.Inf(1)
			}
			if trial%3 == 0 {
				opts.DefectArc = circuit.ArcID(r.IntN(len(c.Arcs)))
				opts.DefectExtra = math.Max(grid, math.Round(3*cell*r.Float64()/grid)*grid)
			}
			zeroWidth += zeroWidthSteps(checkRunMatchesEvents(t, c, kern, full, delays, pair, opts))
			win.Set(delays, opts.Horizon)
			opts.Window = win
			checkRunMatchesEvents(t, c, kern, full, delays, pair, opts)
		}
		if zeroWidth == 0 {
			t.Errorf("grid %v: no zero-width steps; want > 0", grid)
		}
	}
}

// TestDefectDiffMatchesPointwiseOracle checks the kernel against the
// queue-free refValue on sampled and grid-snapped instances. The grids
// are dyadic: refValue walks back from clk by subtraction while the
// engines add forward, and only exact sums make the two agree when an
// arrival lands exactly on clk.
func TestDefectDiffMatchesPointwiseOracle(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 21)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	cell := m.MeanCellDelay()
	kern, full := NewEngine(c), newEventSim(c)
	r := rng.New(19)
	for trial := 0; trial < 60; trial++ {
		grid := []float64{0, 0.5, 0.25}[trial%3]
		delays := snapDelays(m.SampleInstance(r).Delays, grid)
		pair := randPair(r, c)
		clk := (0.3 + r.Float64()) * float64(c.Depth()) * cell
		arc := circuit.ArcID(r.IntN(len(c.Arcs)))
		extra := 3 * cell * r.Float64()
		if grid > 0 {
			extra = math.Round(extra/grid) * grid
			clk = math.Round(clk/grid) * grid
		}
		checkDefectDiff(t, c, kern, full, delays, pair, arc, extra, clk, true, nil)
	}
}

// TestIncrementalEngineReuseUndoPath runs the kernel for many arcs
// against one baseline on one engine, the engine that recorded the
// baseline, as the dictionary build does. Each answer must match the
// event oracle's full run, so no scratch state may leak between arcs.
func TestIncrementalEngineReuseUndoPath(t *testing.T) {
	c, err := synth.GenerateNamed("small", 41)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	clk := mcClock(t, m, 0.85, 400, 2)
	r := rng.New(123)
	inst := m.SampleInstance(r)
	pair := randPair(r, c)
	for i := range pair.V2 {
		pair.V2[i] = !pair.V1[i] || pair.V2[i]
	}
	eng, full := NewEngine(c), newEventSim(c)
	base := eng.Run(inst.Delays, pair, AtClock(clk))
	for trial := 0; trial < 60; trial++ {
		arc := circuit.ArcID(r.IntN(len(c.Arcs)))
		extra := 0.2 + 3*r.Float64()
		got := eng.RunDefectDiff(inst.Delays, base, arc, extra, clk)
		opts := AtClock(clk)
		opts.DefectArc = arc
		opts.DefectExtra = extra
		want := full.run(inst.Delays, pair, opts)
		for i := range want.Capture {
			if got[i] != want.Capture[i] {
				t.Fatalf("trial %d arc %d: output %d kernel %v, oracle %v",
					trial, arc, i, got[i], want.Capture[i])
			}
		}
	}
}

// TestIncrementalAfterRunInvalidatesBaseline interleaves full runs
// with kernel calls on one engine. A full run of another pattern
// between two kernel calls against a baseline recorded elsewhere must
// not change the second answer, and baselines of different patterns,
// instances and horizons recorded one after another on the engine must
// each be answered against their own waveforms.
func TestIncrementalAfterRunInvalidatesBaseline(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 47)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	clk := mcClock(t, m, 0.9, 300, 3)
	r := rng.New(9)
	eng, full := NewEngine(c), newEventSim(c)
	check := func(what string, delays []float64, pair logicsim.PatternPair, got []bool, arc circuit.ArcID, extra, horizon float64) {
		t.Helper()
		opts := AtClock(horizon)
		opts.DefectArc = arc
		opts.DefectExtra = extra
		want := full.run(delays, pair, opts)
		for i := range want.Capture {
			if got[i] != want.Capture[i] {
				t.Fatalf("%s arc %d: output %d kernel %v, oracle %v",
					what, arc, i, got[i], want.Capture[i])
			}
		}
	}

	inst := m.SampleInstance(r)
	pair := randPair(r, c)
	base := NewEngine(c).Run(inst.Delays, pair, AtClock(clk))
	arc := circuit.ArcID(r.IntN(len(c.Arcs)))
	_ = eng.RunDefectDiff(inst.Delays, base, arc, 1.5, clk)
	other := logicsim.PatternPair{V1: pair.V2, V2: pair.V1}
	_ = eng.Run(inst.Delays, other, AtClock(clk))
	check("after interleaved Run:", inst.Delays, pair, eng.RunDefectDiff(inst.Delays, base, arc, 1.5, clk), arc, 1.5, clk)

	for b := 0; b < 6; b++ {
		delays := snapDelays(m.SampleInstance(r).Delays, []float64{0, 0.25}[b%2])
		pair := randPair(r, c)
		horizon := clk * (0.7 + 0.2*float64(b))
		base := eng.Run(delays, pair, AtClock(horizon))
		for trial := 0; trial < 40; trial++ {
			arc := circuit.ArcID(r.IntN(len(c.Arcs)))
			extra := 0.2 + 3*r.Float64()
			got := eng.RunDefectDiff(delays, base, arc, extra, horizon)
			check(fmt.Sprintf("baseline %d trial %d", b, trial), delays, pair, got, arc, extra, horizon)
		}
	}
}

// TestIncrementalRequiresWaveforms: a Result no run produced carries
// no waveforms to re-simulate against.
func TestIncrementalRequiresWaveforms(t *testing.T) {
	c, m := chain(t)
	in := m.NominalInstance()
	base := &Result{}
	defer func() {
		if recover() == nil {
			t.Errorf("missing waveforms not detected")
		}
	}()
	NewEngine(c).RunDefectDiff(in.Delays, base, 0, 1, math.Inf(1))
}

// FuzzDefectDiff fuzzes instance, grid, pattern, defect and horizon
// (including an infinite one): the kernel's defect re-simulation and
// its full run with the defect overlay against the event oracle and,
// except on the non-dyadic 0.1 grid (see
// TestDefectDiffMatchesPointwiseOracle), the re-simulation against
// refValue. The high bit of gridSel runs both under observation
// windows.
func FuzzDefectDiff(f *testing.F) {
	c, err := synth.GenerateNamed("mini", 13)
	if err != nil {
		f.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	cell := m.MeanCellDelay()
	kern, full, win := NewEngine(c), newEventSim(c), NewWindow(c)
	f.Add(uint64(1), uint8(0), uint16(0), uint8(40), uint8(128))
	f.Add(uint64(2), uint8(1), uint16(17), uint8(200), uint8(90))
	f.Add(uint64(3), uint8(2), uint16(63), uint8(7), uint8(255))
	f.Add(uint64(4), uint8(3), uint16(5), uint8(255), uint8(30))
	f.Add(uint64(5), uint8(0x81), uint16(23), uint8(120), uint8(70))
	f.Fuzz(func(t *testing.T, seed uint64, gridSel uint8, arcRaw uint16, extraRaw, clkRaw uint8) {
		r := rng.New(seed)
		grid := []float64{0, 0.5, 0.25, 0.125, 0.1}[int(gridSel&0x7f)%5]
		var w *Window
		if gridSel&0x80 != 0 {
			w = win
		}
		delays := snapDelays(m.SampleInstance(r).Delays, grid)
		pair := randPair(r, c)
		arc := circuit.ArcID(int(arcRaw) % len(c.Arcs))
		extra := 4 * cell * float64(extraRaw) / 255
		if grid > 0 {
			extra = math.Round(extra/grid) * grid
		}
		clk := math.Inf(1)
		if clkRaw != 255 {
			clk = 1.5 * float64(c.Depth()) * cell * float64(clkRaw) / 255
			if grid > 0 && clkRaw%2 == 0 {
				clk = math.Round(clk/grid) * grid
			}
		}
		checkDefectDiff(t, c, kern, full, delays, pair, arc, extra, clk, grid != 0.1, w)
		opts := AtClock(clk)
		opts.DefectArc = arc
		opts.DefectExtra = extra
		opts.Window = w
		checkRunMatchesEvents(t, c, kern, full, delays, pair, opts)
	})
}
