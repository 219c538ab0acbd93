// Package timing implements the statistical timing substrate of the
// paper: the circuit model C whose pin-to-pin arc delays are correlated
// random variables (Definition D.1), fixed-delay circuit instances
// sampled from it (Definition D.2), the timing.Engine interface every
// statistical quantity is read through, and its Monte-Carlo engine MC
// producing arrival-time and circuit-delay distributions. The
// closed-form engine lives in package timing/engine.
//
// Correlation follows the classic global/local decomposition used by
// cell-based statistical models: every arc delay is
//
//	d = nominal · max(ε, 1 + σ_g·G + σ_l·L)
//
// where G ~ N(0,1) is shared by the whole instance (inter-die process
// variation, correlating all arcs) and L ~ N(0,1) is drawn per arc
// (intra-die local variation). The pairwise delay correlation is then
// σ_g²/(σ_g²+σ_l²).
package timing

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// Params configures the statistical cell library. Delays are in
// arbitrary consistent time units (nominally: one NAND delay ≈ UnitDelay).
type Params struct {
	UnitDelay   float64 // base pin-to-pin delay of a 2-input NAND/NOR
	LoadFactor  float64 // relative delay increase per extra fanout of the driving gate
	FaninFactor float64 // relative delay increase per extra input pin beyond 2
	WireDelay   float64 // fixed interconnect component per arc
	PortDelay   float64 // delay of the arc into an output port gate
	SigmaGlobal float64 // global (fully correlated) sigma as a fraction of nominal
	SigmaLocal  float64 // local (independent) sigma as a fraction of nominal
}

// DefaultParams returns the base library parameters: 10 % correlated
// and 5 % independent variation, matching the variability regime of
// the paper's 0.25 µm characterization. ddd-sta, ddd-vcd, Figures 1
// and 3 and the dictionary goldens use them as they are; Table I and
// the programs that diagnose its cases override the variation with
// eval.DefaultConfig's timing regime (σ_g = 2 %, σ_l = 8 %).
func DefaultParams() Params {
	return Params{
		UnitDelay:   1.0,
		LoadFactor:  0.15,
		FaninFactor: 0.10,
		WireDelay:   0.10,
		PortDelay:   0.05,
		SigmaGlobal: 0.10,
		SigmaLocal:  0.05,
	}
}

// cellBase returns the nominal pin-to-pin delay multiplier per cell type.
func cellBase(t circuit.CellType) float64 {
	switch t {
	case circuit.Buf:
		return 0.6
	case circuit.Not:
		return 0.5
	case circuit.Nand, circuit.Nor:
		return 1.0
	case circuit.And, circuit.Or:
		return 1.3 // NAND/NOR plus output inverter
	case circuit.Xor, circuit.Xnor:
		return 1.7
	case circuit.Output:
		return 0 // handled by PortDelay
	default:
		return 1.0
	}
}

// Model is the statistical circuit model C = (V, E, I, O, f): the
// netlist plus one delay random variable per arc.
type Model struct {
	C       *circuit.Circuit
	P       Params
	Nominal []float64 // per-arc nominal delay (the mean of f(e))
}

// NewModel characterizes every arc of c under p.
func NewModel(c *circuit.Circuit, p Params) *Model {
	m := &Model{C: c, P: p, Nominal: make([]float64, len(c.Arcs))}
	for i := range c.Arcs {
		a := &c.Arcs[i]
		to := &c.Gates[a.To]
		if to.Type == circuit.Output {
			m.Nominal[i] = p.PortDelay
			continue
		}
		d := p.UnitDelay * cellBase(to.Type)
		if extra := len(to.Fanin) - 2; extra > 0 {
			d *= 1 + p.FaninFactor*float64(extra)
		}
		if extra := len(c.Gates[a.From].Fanout) - 1; extra > 0 {
			d *= 1 + p.LoadFactor*float64(extra)
		}
		m.Nominal[i] = d + p.WireDelay
	}
	return m
}

// MeanCellDelay returns the average nominal arc delay over logic arcs
// (excluding output-port arcs). The paper's defect-size distribution is
// specified in units of "a cell delay"; this is that unit.
func (m *Model) MeanCellDelay() float64 {
	sum, n := 0.0, 0
	for i := range m.C.Arcs {
		if m.C.Gates[m.C.Arcs[i].To].Type == circuit.Output {
			continue
		}
		sum += m.Nominal[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Instance is a fixed-delay circuit instance C_in (Definition D.2):
// one manufactured die drawn from the model.
type Instance struct {
	Delays []float64 // per-arc fixed delay
}

// minScale truncates the multiplicative variation so delays stay
// positive (Definition D.1 defines f(e) over [0, +inf]).
const minScale = 0.05

// sampleArc computes one arc's fixed delay from the instance's global
// factor g and the arc's local factor l. Both the scalar sampler and
// the blocked kernel funnel through this helper, so the two paths
// evaluate the same floating-point expression and produce bit-identical
// delays.
func (m *Model) sampleArc(nom, g, l float64) float64 {
	scale := 1 + m.P.SigmaGlobal*g + m.P.SigmaLocal*l
	if scale < minScale {
		scale = minScale
	}
	return nom * scale
}

// SampleInstance draws one circuit instance using r.
func (m *Model) SampleInstance(r *rand.Rand) *Instance {
	in := &Instance{Delays: make([]float64, len(m.Nominal))}
	m.SampleDelaysInto(in.Delays, r)
	return in
}

// SampleDelaysInto draws one instance's per-arc delays into dst (which
// must have length len(m.Nominal)) without allocating — the scratch
// form of SampleInstance for hot Monte-Carlo loops. The RNG draw order
// (one global normal, then one local normal per arc) is identical to
// SampleInstance's, so both produce bit-identical delays from the same
// generator state.
func (m *Model) SampleDelaysInto(dst []float64, r *rand.Rand) {
	g := r.NormFloat64()
	for i, nom := range m.Nominal {
		dst[i] = m.sampleArc(nom, g, r.NormFloat64())
	}
}

// SampleInstanceSeeded draws the idx-th instance of a deterministic
// sequence rooted at seed.
func (m *Model) SampleInstanceSeeded(seed, idx uint64) *Instance {
	return m.SampleInstance(rng.NewDerived(seed, idx))
}

// NominalInstance returns the instance with every arc at its nominal
// delay (the "typical corner").
func (m *Model) NominalInstance() *Instance {
	in := &Instance{Delays: make([]float64, len(m.Nominal))}
	copy(in.Delays, m.Nominal)
	return in
}

func (m *Model) String() string {
	return fmt.Sprintf("Model(%s: %d arcs, unit=%g, σg=%g, σl=%g)",
		m.C.Name, len(m.Nominal), m.P.UnitDelay, m.P.SigmaGlobal, m.P.SigmaLocal)
}
