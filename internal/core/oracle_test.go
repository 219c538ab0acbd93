package core

import (
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/tsim"
)

// The scalar reference implementations the word-parallel production
// kernels are pinned against (words_test.go). They are kept verbatim
// from the code those kernels replaced and are compiled only into
// tests.

// simulateBehaviorScalar is SimulateBehavior without the prescreen:
// every pattern runs through tsim. Kept verbatim from the pre-screen
// code as the oracle for the screened path.
func simulateBehaviorScalar(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, defectArc circuit.ArcID, defectSize, clk float64) *Behavior {
	b := NewBehavior(len(c.Outputs), len(patterns))
	eng := tsim.NewEngine(c)
	for j, pat := range patterns {
		opts := tsim.AtClock(clk)
		opts.DefectArc = defectArc
		opts.DefectExtra = defectSize
		res := eng.Run(delays, pat, opts)
		for i, o := range c.Outputs {
			b.Set(i, j, res.Capture[i] != res.Final[o])
		}
	}
	return b
}

// simulateBehaviorMultiScalar is SimulateBehaviorMulti without the
// prescreen, kept verbatim as the oracle for the screened path.
func simulateBehaviorMultiScalar(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, md defect.MultiDefect, clk float64) *Behavior {
	withDefects := md.ApplyTo(delays)
	b := NewBehavior(len(c.Outputs), len(patterns))
	eng := tsim.NewEngine(c)
	for j, pat := range patterns {
		res := eng.Run(withDefects, pat, tsim.AtClock(clk))
		for i, o := range c.Outputs {
			b.Set(i, j, res.Capture[i] != res.Final[o])
		}
	}
	return b
}

// suspectArcsTieredScalar is the one-pattern-at-a-time reference
// implementation: the oracle the word-parallel SuspectArcsTiered is
// tested against, kept verbatim from the pre-kernel code.
func suspectArcsTieredScalar(c *circuit.Circuit, patterns []logicsim.PatternPair, b *Behavior) (strict, relaxed []circuit.ArcID) {
	sensMarked := c.NewArcSet()
	coneMarked := c.NewArcSet()
	for j, pat := range patterns {
		var tr logicsim.Transition
		simulated := false
		for i := 0; i < b.Rows; i++ {
			if !b.At(i, j) {
				continue
			}
			if !simulated {
				tr = logicsim.SimulatePair(c, pat)
				simulated = true
			}
			for _, aid := range logicsim.SensitizedArcs(c, tr, i).IDs() {
				sensMarked.Add(aid)
			}
			for _, aid := range logicsim.TransitionConeArcs(c, tr, i).IDs() {
				coneMarked.Add(aid)
			}
		}
	}
	return extractTiers(c, sensMarked, coneMarked)
}
