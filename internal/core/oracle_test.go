package core

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/tsim"
)

// The scalar reference implementations the word-parallel production
// kernels are pinned against (words_test.go). They are kept verbatim
// from the code those kernels replaced and are compiled only into
// tests.

// suspectArcs is the untiered suspect set: both tiers of
// SuspectArcsTiered, merged and sorted by arc ID.
func suspectArcs(c *circuit.Circuit, patterns []logicsim.PatternPair, b *Behavior) []circuit.ArcID {
	strict, relaxed := SuspectArcsTiered(c, patterns, b)
	merged := append(strict, relaxed...)
	slices.Sort(merged)
	return merged
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
			for _, aid := range transitionConeArcs(c, tr, i).IDs() {
				coneMarked.Add(aid)
			}
		}
	}
	return extractTiers(c, sensMarked, coneMarked)
}

// transitionConeArcs is the scalar hazard cone of output outIdx: the
// arcs inside the output's fan-in cone whose driver transitions.
func transitionConeArcs(c *circuit.Circuit, tr logicsim.Transition, outIdx int) circuit.ArcSet {
	arcs := c.NewArcSet()
	cone := c.FaninCone(c.Outputs[outIdx])
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if !cone.Has(a.To) || !cone.Has(a.From) {
			continue
		}
		if tr.Init[a.From] != tr.Final[a.From] {
			arcs.Add(a.ID)
		}
	}
	return arcs
}

// buildDictionaryReference is the unskipped scalar oracle for the
// Monte-Carlo BuildDictionary. It draws the same instance and
// defect-size streams per sample (Derive(seed, s) and
// DeriveN(seed, sizeStream, s)), then runs one full tsim pass for the
// baseline and one full pass with the DefectArc/DefectExtra overlay
// for every (sample, pattern, suspect) triple: no transition skip and
// no difference propagation. Failure counts are integers, so the
// resulting matrices must match the production build bit for bit.
func buildDictionaryReference(m *timing.Model, patterns []logicsim.PatternPair, suspects []circuit.ArcID, cfg DictConfig) *Dictionary {
	c := m.C
	nOut, nPat := len(c.Outputs), len(patterns)
	eng := tsim.NewEngine(c)
	mFail := NewMatrix(nOut, nPat)
	eFail := make([]*Matrix, len(suspects))
	for i := range eFail {
		eFail[i] = NewMatrix(nOut, nPat)
	}
	sizes := make([]float64, len(suspects))
	for s := 0; s < cfg.Samples; s++ {
		delays := m.SampleInstanceSeeded(cfg.Seed, uint64(s)).Delays
		szRng := rng.New(rng.DeriveN(cfg.Seed, sizeStream, uint64(s)))
		for i := range sizes {
			sizes[i] = cfg.SizeDist.Sample(szRng)
		}
		for j, pat := range patterns {
			countFailures(mFail, j, c, eng.Run(delays, pat, tsim.AtClock(cfg.Clk)))
			for i, arc := range suspects {
				opts := tsim.AtClock(cfg.Clk)
				opts.DefectArc = arc
				opts.DefectExtra = sizes[i]
				countFailures(eFail[i], j, c, eng.Run(delays, pat, opts))
			}
		}
	}
	inv := 1.0 / float64(cfg.Samples)
	d := &Dictionary{
		C: c, Patterns: patterns, Suspects: suspects, Clk: cfg.Clk,
		M: mFail.Scale(inv),
		E: make([]*Matrix, len(suspects)),
		S: make([]*Matrix, len(suspects)),
	}
	for i, e := range eFail {
		d.E[i] = e.Scale(inv)
		d.S[i] = d.E[i].Sub(d.M)
	}
	return d
}

// countFailures adds one to column j of fails for every output whose
// captured value differs from its settled final value in res.
func countFailures(fails *Matrix, j int, c *circuit.Circuit, res *tsim.Result) {
	for oi, o := range c.Outputs {
		if res.Capture[oi] != res.Final[o] {
			fails.Set(oi, j, fails.At(oi, j)+1)
		}
	}
}
