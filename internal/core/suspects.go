package core

import (
	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// SuspectArcsTiered performs the cause-effect pruning of Algorithm
// E.1 step 1: an arc is a suspect when, under some failing pattern, it
// can carry the failure to a failing output. The two evidence tiers
// are kept separate: strict holds arcs on statically sensitized
// transition paths to failing outputs (the strongest cause-effect
// evidence); relaxed holds the remaining transitioning arcs inside a
// failing output's fan-in cone, since delay faults also surface
// through dynamic, non-statically-sensitized propagation and captured
// hazards. Arcs into output-port gates are excluded (they are not
// physical defect locations). Callers that must cap the suspect count
// keep the strict tier whole and subsample the relaxed tier. Both
// slices are sorted by arc ID and mutually disjoint.
//
// The relaxation matters: a strict static-sensitization trace misses
// defects whose extra delay propagates along paths that the settled
// logic values do not sensitize, and pruning the true defect out makes
// diagnosis unwinnable regardless of the error function. The resulting
// suspect-set sizes are in the range the paper reports (hundreds for
// the larger circuits); ranking them is exactly the dictionary's job.
//
// The production path is word-parallel: patterns are packed 64 pattern
// pairs to a machine word (logicsim.PackPatternPairsInto, same lane
// layout as Behavior's word view), both vectors of a block are settled
// with one EvalWordsInto sweep each, and the sensitized/cone arc sets
// are accumulated as 64-wide masks — one reverse-topological sweep per
// failing output row covers a whole block, where the scalar path paid
// one SimulatePair plus one trace per failing (output, pattern) cell.
// Blocks and rows with no failing bit are skipped outright. The scalar
// walk survives in the tests as suspectArcsTieredScalar, the bit-exact
// oracle the differential tests pin this kernel against.
//
//ddd:hot
func SuspectArcsTiered(c *circuit.Circuit, patterns []logicsim.PatternPair, b *Behavior) (strict, relaxed []circuit.ArcID) {
	sensMarked := c.NewArcSet()
	coneMarked := c.NewArcSet()
	// All block scratch is hoisted out of the sweep loops: the packed
	// input planes, the two settled-value planes, the trace scratch, and
	// the per-arc mask accumulators.
	nGates, nArcs := len(c.Gates), len(c.Arcs)
	initIn := make([]uint64, len(c.Inputs))
	finalIn := make([]uint64, len(c.Inputs))
	initVals := make([]uint64, nGates)
	finalVals := make([]uint64, nGates)
	active := make([]uint64, nGates)
	cone := c.NewGateSet()
	sensMasks := make([]uint64, nArcs)
	coneMasks := make([]uint64, nArcs)
	wordSweeps := 0
	for start := 0; start < len(patterns); start += 64 {
		block := patterns[start:min(start+64, len(patterns))]
		w := start >> 6
		var anyFail uint64
		for i := 0; i < b.Rows; i++ {
			anyFail |= b.Word(i, w)
		}
		if anyFail == 0 {
			continue // every pattern of the block passed everywhere
		}
		wordSweeps++
		if _, _, err := logicsim.PackPatternPairsInto(initIn, finalIn, c, block); err != nil {
			// A width-mismatched pattern is a programmer error, exactly as
			// it was for the scalar path's Eval panic.
			panic(err)
		}
		initVals = logicsim.EvalWordsInto(initVals, c, initIn)
		finalVals = logicsim.EvalWordsInto(finalVals, c, finalIn)
		for i := range sensMasks {
			sensMasks[i] = 0
			coneMasks[i] = 0
		}
		for i := 0; i < b.Rows; i++ {
			fm := b.Word(i, w)
			if fm == 0 {
				continue // output i passed the whole block
			}
			logicsim.SensitizedArcsWordsMaskedInto(sensMasks, active, c, initVals, finalVals, i, fm)
			logicsim.TransitionConeArcsWordsInto(coneMasks, cone, c, initVals, finalVals, i, fm)
		}
		for aid, m := range sensMasks {
			if m != 0 {
				sensMarked[aid] = true
			}
		}
		for aid, m := range coneMasks {
			if m != 0 {
				coneMarked[aid] = true
			}
		}
	}
	suspectWords.Add(float64(wordSweeps))
	return extractTiers(c, sensMarked, coneMarked)
}

// extractTiers turns the marked arc sets into the sorted, disjoint
// strict/relaxed tiers, dropping arcs into output-port gates.
func extractTiers(c *circuit.Circuit, sensMarked, coneMarked circuit.ArcSet) (strict, relaxed []circuit.ArcID) {
	for _, aid := range sensMarked.IDs() {
		if c.Gates[c.Arcs[aid].To].Type == circuit.Output {
			continue
		}
		strict = append(strict, aid)
	}
	for _, aid := range coneMarked.IDs() {
		if sensMarked.Has(aid) || c.Gates[c.Arcs[aid].To].Type == circuit.Output {
			continue
		}
		relaxed = append(relaxed, aid)
	}
	return strict, relaxed
}
