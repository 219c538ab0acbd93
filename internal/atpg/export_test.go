package atpg

import (
	"math/rand/v2"

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
	rest, err := g.prepare(p, rising, robust)
	if err != nil {
		return nil, err
	}
	var outs []Attempt
	for attempt := 0; attempt <= restarts; attempt++ {
		choice := r
		if attempt == 0 {
			choice = nil
		}
		ok, backtracks := g.attempt(rest, choice)
		outs = append(outs, Attempt{Solved: ok, Backtracks: backtracks})
		if ok {
			break
		}
	}
	return outs, nil
}
