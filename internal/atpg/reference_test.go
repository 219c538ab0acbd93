package atpg

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
)

// The reference search is PathTest as it was before the objective
// table: prepare sets no forbid marks, so setInput implies every
// decision in full, and search always recurses into the child call,
// whose objective scan rejects a falsified objective. Run on a
// Generator that production PathTest never touches, whose table stays
// empty, it is the oracle for the stop at the first falsified
// objective and for the setup that tryPath shares between the two
// launch polarities.

// refPrepare unassigns every input, restricts implication to the
// objectives' cones, applies the objectives that sit on inputs in
// objective order and returns the rest.
func (g *Generator) refPrepare(p path.Path, rising, robust bool) ([]objective, error) {
	objs, err := g.pathObjectives(p, rising, robust)
	if err != nil {
		return nil, err
	}
	g.clear()
	g.restrict(objs)
	rest := g.rest[:0]
	for _, o := range objs {
		if g.cells[o.g].class != circuit.ClassInput {
			rest = append(rest, o)
			continue
		}
		if prev := g.vals[o.frame][o.g]; prev != fX && prev != o.val {
			return nil, ErrUntestable
		}
		g.setInput(o.frame, o.g, o.val)
	}
	g.rest = rest
	return rest, nil
}

// refSearch is the PODEM loop with every decision implied in full.
func (g *Generator) refSearch(objs []objective, backtracks *int) bool {
	var open *objective
	for i := range objs {
		o := &objs[i]
		got := g.vals[o.frame][o.g]
		if got == o.val {
			continue
		}
		if got != fX {
			return false
		}
		if open == nil {
			open = o
		}
	}
	if open == nil {
		return true
	}
	in, target, ok := g.backtrace(open.g, open.frame, open.val)
	if !ok {
		return false
	}
	mark := len(g.trail)
	for _, v := range [2]byte{target, target ^ 1} {
		if !g.setInput(open.frame, in, v) {
			panic("atpg: the reference search stopped at a forbid mark")
		}
		if g.refSearch(objs, backtracks) {
			return true
		}
		g.undo(mark)
		*backtracks++
		if *backtracks >= backtrackLimit {
			return false
		}
	}
	return false
}

// ReferenceAttempts is Attempts on the reference search.
func (g *Generator) ReferenceAttempts(p path.Path, rising, robust bool, r *rand.Rand) ([]Attempt, error) {
	rest, err := g.refPrepare(p, rising, robust)
	if err != nil {
		return nil, err
	}
	var outs []Attempt
	for attempt := 0; attempt <= restarts; attempt++ {
		g.choice = r
		if attempt == 0 {
			g.choice = nil
		}
		backtracks := 0
		ok := g.refSearch(rest, &backtracks)
		g.choice = nil
		outs = append(outs, Attempt{Solved: ok, Backtracks: backtracks})
		if ok {
			break
		}
	}
	return outs, nil
}

// ReferencePathTest is PathTest on the reference search.
func (g *Generator) ReferencePathTest(p path.Path, rising, robust bool, r *rand.Rand) (logicsim.PatternPair, error) {
	outs, err := g.ReferenceAttempts(p, rising, robust, r)
	if err != nil {
		return logicsim.PatternPair{}, err
	}
	if last := outs[len(outs)-1]; !last.Solved {
		for _, o := range outs {
			if o.Backtracks >= backtrackLimit {
				return logicsim.PatternPair{}, ErrBudget
			}
		}
		return logicsim.PatternPair{}, ErrUntestable
	}
	pair := g.extractPair(r)
	if err := CheckPathTest(g.c, p, pair, robust); err != nil {
		return logicsim.PatternPair{}, fmt.Errorf("atpg: internal: generated test fails verification: %w", err)
	}
	return pair, nil
}

// ReferenceTryPath is tryPath with one ReferencePathTest per criterion
// and polarity.
func (g *Generator) ReferenceTryPath(p path.Path, allowNonRobust bool, r *rand.Rand) (PathTestResult, bool) {
	for _, robust := range []bool{true, false} {
		if !robust && !allowNonRobust {
			break
		}
		for _, rising := range []bool{true, false} {
			if pair, err := g.ReferencePathTest(p, rising, robust, r); err == nil {
				return PathTestResult{Path: p, Pair: pair, Robust: robust}, true
			}
		}
	}
	return PathTestResult{}, false
}
