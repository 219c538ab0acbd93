package engine

import (
	"context"
	"math"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/logicsim"
	"repro/internal/par"
	"repro/internal/tsim"
)

// SignatureProbs holds analytic critical-probability signatures for a
// dictionary build: the defect-free matrix M and one matrix per
// suspect E, flattened row-major with the pattern axis innermost
// (matching the core accumulator layout).
type SignatureProbs struct {
	NOut, NPat, NSus int
	M                []float64 // M[oi*NPat + j]
	E                []float64 // E[(i*NOut+oi)*NPat + j]
}

// Signatures computes the analytic counterpart of the Monte-Carlo
// dictionary build: per (output, pattern) the probability that the
// output captures a wrong value at clk, defect-free (M) and under each
// suspect defect (E).
//
// Where the MC build simulates every (sample, pattern, suspect)
// triple, the analytic build simulates only the NOMINAL die — one
// timed run per pattern, plus per (pattern, suspect) a
// difference-propagation re-simulation (tsim.RunDefectDiff) of the
// defect at its mean size — and turns each output waveform into a
// capture-failure probability in closed form. An output whose
// waveform the defect leaves unchanged keeps its M entry exactly.
// An output captures wrongly exactly when clk falls in a time interval
// where its waveform still differs from the settled value; walking the
// nominal transitions t_1 < … < t_k backward, those intervals
// alternate, so
//
//	P(fail) = Σ_{i=1..k} (−1)^{k−i} · P(t_i > clk),
//
// with each transition time modeled as a Normal centered on its
// nominal time and dilated by process variation (see dilationVar; a
// transition moved by the defect also carries the size distribution's
// variance). Collapsing the sample axis this way is what turns
// seconds of dictionary build into milliseconds.
//
// Approximations (measured end-to-end by eval's engine acceptance test):
// transition times shift under variation but the transition COUNT is
// frozen at the nominal waveform's (variation-created or -killed
// glitches are unseen), co-moving transitions are treated as perfectly
// correlated (the alternating sum telescopes) yet dilated
// independently per transition, and a suspect whose driver never
// transitions under a pattern keeps the baseline row — the same skip
// the MC build applies.
//
// Patterns are processed in parallel (workers as in par.Workers); each
// pattern writes a disjoint column of every matrix, so the result is
// deterministic and independent of scheduling.
func (e *Analytic) Signatures(ctx context.Context, patterns []logicsim.PatternPair, suspects []circuit.ArcID, clk float64, size dist.Dist, workers int) (*SignatureProbs, error) {
	c := e.m.C
	nOut, nPat, nSus := len(c.Outputs), len(patterns), len(suspects)
	sp := &SignatureProbs{
		NOut: nOut, NPat: nPat, NSus: nSus,
		M: make([]float64, nOut*nPat),
		E: make([]float64, nSus*nOut*nPat),
	}
	defMu := size.Mean()
	defVar := size.Variance()

	// One engine per worker: the baseline Result aliases its run
	// scratch, which RunDefectDiff reads but never writes.
	engs := make([]*tsim.Engine, par.Workers(workers, nPat))
	if _, err := par.ForWorkerCtx(ctx, nPat, workers, func(w, j int) {
		eng := engs[w]
		if eng == nil {
			eng = tsim.NewEngine(c)
			engs[w] = eng
		}
		base := eng.Run(e.m.Nominal, patterns[j], tsim.Quiescent())
		for oi, o := range c.Outputs {
			sp.M[oi*nPat+j] = e.captureFailProb(base.Waveform(o), clk, nil, 0)
		}
		for i, arc := range suspects {
			if !base.Transitioned(c.Arcs[arc].From) {
				// The defect arc never sees a transition under this
				// pattern: E equals the baseline (the MC build's skip).
				for oi := 0; oi < nOut; oi++ {
					sp.E[(i*nOut+oi)*nPat+j] = sp.M[oi*nPat+j]
				}
				continue
			}
			eng.RunDefectDiff(e.m.Nominal, base, arc, defMu, math.Inf(1))
			for oi, o := range c.Outputs {
				v := sp.M[oi*nPat+j]
				if w, changed := eng.DefectWaveform(base, o); changed {
					v = e.captureFailProb(w, clk, base.Waveform(o), defVar)
				}
				sp.E[(i*nOut+oi)*nPat+j] = v
			}
		}
	}); err != nil {
		return nil, err
	}
	return sp, nil
}

// captureFailProb turns one recorded output waveform into the
// probability that a capture at clk disagrees with the settled value.
// The waveform's value differs from the settled one exactly on the
// intervals (t_{k-1}, t_k), (t_{k-3}, t_{k-2}), … counted from the
// last transition (plus, when the settled values differ, the initial
// segment), so under co-moving transitions the probability telescopes
// into an alternating sum of per-transition exceedance probabilities.
// Each transition time is dilated by dilationVar; a time that is not
// a step time of the baseline waveform base was moved by the defect
// and additionally carries defVar (the defect-free M passes defVar 0).
// The sum is clamped to [0, 1]: transitions are dilated marginally, so
// near-coincident pairs can otherwise overshoot by their overlap.
func (e *Analytic) captureFailProb(steps []tsim.Step, clk float64, base []tsim.Step, defVar float64) float64 {
	p := 0.0
	sign := 1.0
	// Both waveforms are in increasing time order: walk base backward
	// alongside steps, so base[k] is the last baseline step at or
	// before t.
	k := len(base) - 1
	for i := len(steps) - 1; i >= 0; i-- {
		t := steps[i].T
		v := e.dilationVar(t)
		for k >= 0 && base[k].T > t {
			k--
		}
		if k < 0 || base[k].T < t {
			v += defVar
		}
		p += sign * dist.Normal{Mu: t, Sigma: math.Sqrt(v)}.Exceed(clk)
		sign = -sign
	}
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// dilationVar models how far process variation moves a transition that
// nominally happens at time t: the causing path has total nominal
// length t, whose delay scales with the shared global factor
// (σ_g·t contributes coherently) while per-arc local variation adds
// incoherently — for a path of arcs averaging the circuit's mean cell
// delay d̄, Σ nom_i² ≈ t·d̄, giving variance (σ_g·t)² + σ_l²·d̄·t. The
// path's identity is taken from the nominal waveform, not re-derived
// per process corner (the frozen-topology approximation above).
func (e *Analytic) dilationVar(t float64) float64 {
	g := e.m.P.SigmaGlobal * t
	return g*g + e.m.P.SigmaLocal*e.m.P.SigmaLocal*e.meanCell*t
}
