package atpg

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/path"
)

// The search bounds, for the external tests.
const (
	BacktrackLimit = backtrackLimit
	Restarts       = restarts
)

// SensitizedPathsThroughScalar is the trial-at-a-time oracle of
// SensitizedPathsThrough, for the external tests.
var SensitizedPathsThroughScalar = sensitizedPathsThroughScalar

// Capacities returns the capacities of the implication trail and
// worklist and of the cone-marking stack.
func (g *Generator) Capacities() (trail, work, cone int) {
	return cap(g.trail), cap(g.work), cap(g.coneStack)
}

// Attempt is the outcome of one PODEM attempt of a PathTest.
type Attempt struct {
	Solved     bool
	Backtracks int
}

// Attempts runs PathTest's attempt loop for p — attempt 0 with the
// deterministic backtrace, then the restarts with choices drawn from
// r — and returns each attempt's outcome, stopping after the first
// success as PathTest does. It does not fill or verify the found pair.
func (g *Generator) Attempts(p path.Path, rising, robust bool, r *rand.Rand) ([]Attempt, error) {
	if err := g.prepare(p, rising, robust); err != nil {
		return nil, err
	}
	var outs []Attempt
	for attempt := 0; attempt <= restarts; attempt++ {
		choice := r
		if attempt == 0 {
			choice = nil
		}
		ok, backtracks := g.attempt(g.rest, choice)
		outs = append(outs, Attempt{Solved: ok, Backtracks: backtracks})
		if ok {
			break
		}
	}
	return outs, nil
}

// TryPath is tryPath on g: PathSetTests' criteria and polarities for
// p, with one setup per criterion.
func (g *Generator) TryPath(p path.Path, allowNonRobust bool, r *rand.Rand) (PathTestResult, bool) {
	return tryPath(g, p, allowNonRobust, r)
}

// ForbidMarks returns the number of forbid table entries that are set,
// and an error naming the first entry that differs from the marks of
// the non-input objectives of PathTest(p, rising, robust). It rebuilds
// the objectives, so it overwrites the Generator's objective scratch.
func (g *Generator) ForbidMarks(p path.Path, rising, robust bool) (int, error) {
	objs, err := g.pathObjectives(p, rising, robust)
	if err != nil {
		return 0, err
	}
	var want [2][]byte
	for f := range want {
		want[f] = make([]byte, len(g.forbid[f]))
	}
	for _, o := range objs {
		if g.cells[o.g].class != circuit.ClassInput {
			want[o.frame][o.g] |= 1 << (o.val ^ 1)
		}
	}
	set := 0
	for f := range want {
		for i, got := range g.forbid[f] {
			if got != 0 {
				set++
			}
			if got != want[f][i] {
				return set, fmt.Errorf("frame %d gate %s: forbid mark %02b, want %02b", f, g.c.Gates[i].Name, got, want[f][i])
			}
		}
	}
	return set, nil
}
