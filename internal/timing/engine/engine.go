// Package engine selects the statistical timing backend behind the
// timing.Engine interface by name: "mc", the Monte-Carlo engine
// timing.MC, and "analytic", a closed-form SSTA engine (Analytic) that
// propagates first-order canonical forms under Clark's moment-matching
// max with correlation tracking (DESIGN.md §14).
//
// Call sites construct one with New(name, model), where the empty name
// means DefaultName. Selection stays string-driven so binaries expose a
// uniform `-engine {mc,analytic}` flag and configs serialize the choice
// as data.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/timing"
)

// DefaultName is the engine selected by an empty name: Monte Carlo,
// the bit-exact oracle every result in the repo is defined against.
const DefaultName = "mc"

// New constructs the named engine over m. The empty name selects
// DefaultName; an unknown name is an error listing the known engines.
func New(name string, m *timing.Model) (timing.Engine, error) {
	switch name {
	case "", "mc":
		return timing.NewMC(m), nil
	case "analytic":
		return NewAnalytic(m), nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// Known reports whether name selects an engine ("" counts: it selects
// the default).
func Known(name string) bool {
	return name == "" || slices.Contains(Names(), name)
}

// Names returns the engine names, sorted.
func Names() []string { return []string{"analytic", "mc"} }
