package repro

import (
	"math/rand/v2"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/tsim"
)

// optimizeFill is the timing-guided refinement Section G sketches (and
// attributes to GA-based ATPG [11]): a generated path test usually
// leaves many inputs unconstrained, and different fills produce
// different delays along the targeted path's sensitized cone. Starting
// from a valid test, it hill-climbs over single-bit flips of the two
// vectors, accepting a flip when the pair remains a valid (non-)robust
// test for the path and the timed arrival at the path's output on the
// given fixed-delay instance does not decrease.
//
// The search is deterministic under r and costs one timed simulation
// per attempted flip. It returns the improved pair and its arrival
// time; the original pair is returned unchanged when no flip helps.
// BenchmarkAblationTimedFill measures it; no pipeline stage uses it.
func optimizeFill(c *circuit.Circuit, delays []float64, p path.Path, pair logicsim.PatternPair, robust bool, flips int, r *rand.Rand) (logicsim.PatternPair, float64) {
	outIdx := pathOutput(c, p)
	if outIdx < 0 {
		return pair, 0
	}
	eng := tsim.NewEngine(c)
	arrival := func(pp logicsim.PatternPair) float64 {
		return outputArrival(c, eng.Run(delays, pp, tsim.Quiescent()), outIdx)
	}
	best := clonePair(pair)
	bestT := arrival(best)
	n := len(c.Inputs)
	for attempt := 0; attempt < flips; attempt++ {
		cand := clonePair(best)
		bit := r.IntN(n)
		if r.IntN(2) == 0 {
			cand.V1[bit] = !cand.V1[bit]
		} else {
			cand.V2[bit] = !cand.V2[bit]
		}
		if atpg.CheckPathTest(c, p, cand, robust) != nil {
			continue
		}
		if t := arrival(cand); t >= bestT {
			best, bestT = cand, t
		}
	}
	return best, bestT
}

func clonePair(p logicsim.PatternPair) logicsim.PatternPair {
	return logicsim.PatternPair{
		V1: append(logicsim.Vector(nil), p.V1...),
		V2: append(logicsim.Vector(nil), p.V2...),
	}
}

// outputArrival is the time of the last step of output outIdx's
// waveform in res, 0 when the output never changes; at an infinite
// horizon this is the output's arrival time.
func outputArrival(c *circuit.Circuit, res *tsim.Result, outIdx int) float64 {
	if w := res.Waveform(c.Outputs[outIdx]); len(w) > 0 {
		return w[len(w)-1].T
	}
	return 0
}

// pathOutput returns the index into c.Outputs of the gate path p ends
// at, or -1 when p does not end at a primary output.
func pathOutput(c *circuit.Circuit, p path.Path) int {
	end := c.Arcs[p.Arcs[len(p.Arcs)-1]].To
	for i, o := range c.Outputs {
		if o == end {
			return i
		}
	}
	return -1
}

func TestOptimizeFillNeverDegrades(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	r := rng.New(3)
	site := path.KLongestThrough(c, m.Nominal, 0, 1)[0].Arcs[0]
	tests := atpg.DiagnosticPatterns(c, m.Nominal, site, 4, r)
	if len(tests) == 0 {
		t.Skip("no tests for this site")
	}
	for i, tc := range tests {
		outIdx := pathOutput(c, tc.Path)
		eng := tsim.NewEngine(c)
		before := outputArrival(c, eng.Run(inst.Delays, tc.Pair, tsim.Quiescent()), outIdx)

		opt, after := optimizeFill(c, inst.Delays, tc.Path, tc.Pair, tc.Robust, 60, rng.New(uint64(i)))
		if after < before-1e-12 {
			t.Errorf("test %d: fill optimization degraded arrival %v -> %v", i, before, after)
		}
		// The optimized pair must still be a valid test.
		if err := atpg.CheckPathTest(c, tc.Path, opt, tc.Robust); err != nil {
			t.Errorf("test %d: optimized pair invalid: %v", i, err)
		}
		// And the original pair must not have been mutated.
		if err := atpg.CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
			t.Errorf("test %d: original pair mutated: %v", i, err)
		}
	}
}

func TestOptimizeFillDeterministic(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 14)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	tests := atpg.DiagnosticPatterns(c, m.Nominal, 5, 3, rng.New(7))
	if len(tests) == 0 {
		t.Skip("no tests")
	}
	tc := tests[0]
	a, ta := optimizeFill(c, inst.Delays, tc.Path, tc.Pair, tc.Robust, 40, rng.New(9))
	b, tb2 := optimizeFill(c, inst.Delays, tc.Path, tc.Pair, tc.Robust, 40, rng.New(9))
	if a.String() != b.String() || ta != tb2 {
		t.Errorf("fill optimization not deterministic")
	}
}

// BenchmarkAblationTimedFill: cost of the timing-guided fill
// optimization (Section G's GA-ATPG idea) and the arrival-time gain it
// buys on the targeted output.
func BenchmarkAblationTimedFill(b *testing.B) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		b.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	site := ArcID(len(c.Arcs) / 2)
	tests := atpg.DiagnosticPatterns(c, m.Nominal, site, 4, rng.New(3))
	if len(tests) == 0 {
		b.Skip("no tests for this site")
	}
	tc := tests[0]
	outIdx := pathOutput(c, tc.Path)
	eng := tsim.NewEngine(c)
	before := outputArrival(c, eng.Run(inst.Delays, tc.Pair, tsim.Quiescent()), outIdx)
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, after = optimizeFill(c, inst.Delays, tc.Path, tc.Pair, tc.Robust, 60, rng.New(uint64(i)))
	}
	b.ReportMetric((after-before)/before*100, "arrival_gain_%")
}
