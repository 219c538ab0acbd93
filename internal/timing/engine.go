package timing

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/dist"
)

// STADist is engine-agnostic statistical STA output: one arrival-time
// distribution per primary output (indexed parallel to C.Outputs) and
// the circuit-delay distribution Δ(C) = max_i Ar(o_i). A Monte-Carlo
// engine fills it with *dist.Empirical, an analytic engine with
// dist.Normal; consumers read only the dist.Distribution surface.
type STADist struct {
	Arrivals     []dist.Distribution
	CircuitDelay dist.Distribution
}

// CriticalProb returns the critical probability P(Δ(C) > clk)
// (Definition D.6) under this engine's circuit-delay distribution.
func (s *STADist) CriticalProb(clk float64) float64 {
	return s.CircuitDelay.Exceed(clk)
}

// Engine is a pluggable statistical timing backend: every quantity the
// diagnosis pipeline consumes from the timing layer, behind one
// interface so Monte-Carlo simulation and closed-form SSTA (Clark
// moment matching) are interchangeable per call site.
//
// The (nSamples, seed, workers) triple parameterizes Monte-Carlo
// effort (MC); analytic engines ignore all three (their answers are
// deterministic closed forms) but must accept them. Every method
// honors ctx cancellation and returns ctx.Err() with a zero result
// when cancelled.
type Engine interface {
	// Name identifies the backend ("mc", "analytic") for logs,
	// /stats and metric labels.
	Name() string
	// STA returns per-output arrival distributions and the circuit
	// delay distribution.
	STA(ctx context.Context, nSamples int, seed uint64, workers int) (*STADist, error)
	// Criticality returns per-arc critical-path membership
	// probabilities.
	Criticality(ctx context.Context, nSamples int, seed uint64, workers int) (*Criticality, error)
	// TimingLengths returns the statistical timing length TL(p) of
	// each path, given as a sequence of arcs, in path order. A case
	// asks once for all its paths, so Monte-Carlo draws its instances
	// once per case, not once per path.
	TimingLengths(ctx context.Context, paths [][]circuit.ArcID, nSamples int, seed uint64, workers int) ([]dist.Distribution, error)
}
