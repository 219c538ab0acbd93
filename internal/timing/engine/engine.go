// Package engine is the registry of statistical timing backends behind
// the timing.Engine interface: "mc", the Monte-Carlo engine timing.MC,
// and "analytic", a closed-form SSTA engine (Analytic) that propagates
// first-order canonical forms under Clark's moment-matching max with
// correlation tracking (DESIGN.md §14).
//
// Backends self-register by name at init time; call sites select one
// with New(name, model), where the empty name means DefaultName. The
// registry keeps engine construction string-driven so binaries expose
// a uniform `-engine {mc,analytic}` flag and configs serialize the
// choice as data.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/timing"
)

// DefaultName is the engine selected by an empty name: Monte Carlo,
// the bit-exact oracle every result in the repo is defined against.
const DefaultName = "mc"

var (
	regMu    sync.RWMutex
	registry = map[string]func(*timing.Model) timing.Engine{}
)

func init() {
	Register("mc", func(m *timing.Model) timing.Engine { return timing.NewMC(m) })
}

// Register installs a backend factory under name. Registering a
// duplicate name panics: two backends answering to one name would make
// `-engine` selection ambiguous.
func Register(name string, factory func(*timing.Model) timing.Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New constructs the named engine over m. The empty name selects
// DefaultName; an unknown name is an error listing the known engines.
func New(name string, m *timing.Model) (timing.Engine, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	return factory(m), nil
}

// Known reports whether name selects a registered engine ("" counts:
// it selects the default).
func Known(name string) bool {
	if name == "" {
		return true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
