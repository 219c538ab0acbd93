package core

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/timing"
	"repro/internal/timing/engine"
)

// buildDictionaryAnalytic is the analytic-engine arm of
// BuildDictionaryCtx: M and every E come from closed-form SSTA
// signatures (engine.Analytic.Signatures) instead of Monte-Carlo
// sampled captures — one nominal timed simulation per pattern plus
// cone-limited canonical-normal propagation per suspect, with no
// sample axis at all. Entries are exact probabilities under the
// analytic model, so cfg.Samples and cfg.Seed are ignored and
// cfg.FullResim has no analog (the cone restriction is always on).
//
// Signature entries S = E − M are clamped at zero: the Monte-Carlo
// build's common random numbers make S nonnegative by construction,
// and downstream match scores assume that; the analytic E and M are
// computed independently per entry, so rounding can land a defect that
// cannot reach an output a hair below its baseline.
func buildDictionaryAnalytic(ctx context.Context, eng *engine.Analytic, m *timing.Model, patterns []logicsim.PatternPair, suspects []circuit.ArcID, cfg DictConfig) (*Dictionary, error) {
	start := time.Now()
	defer func() {
		dictBuildSecondsAnalytic.Add(time.Since(start).Seconds())
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dictBuildsAnalytic.Inc()

	sp, err := eng.Signatures(ctx, patterns, suspects, cfg.Clk, cfg.SizeDist, cfg.Workers)
	if err != nil {
		return nil, err
	}

	nOut, nPat, nSus := sp.NOut, sp.NPat, sp.NSus
	d := &Dictionary{
		C:        m.C,
		Patterns: patterns,
		Suspects: suspects,
		Clk:      cfg.Clk,
		M:        NewMatrix(nOut, nPat),
		E:        make([]*Matrix, nSus),
		S:        make([]*Matrix, nSus),
	}
	copy(d.M.Data, sp.M)
	for i := 0; i < nSus; i++ {
		e := NewMatrix(nOut, nPat)
		copy(e.Data, sp.E[i*nOut*nPat:(i+1)*nOut*nPat])
		d.E[i] = e
		s := e.Sub(d.M)
		for k, v := range s.Data {
			if v < 0 {
				s.Data[k] = 0
			}
		}
		d.S[i] = s
	}
	return d, nil
}
