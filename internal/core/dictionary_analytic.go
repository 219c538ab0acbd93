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
// BuildDictionary: M and every E come from closed-form SSTA
// signatures (engine.Analytic.Signatures) instead of Monte-Carlo
// sampled captures — one nominal timed simulation per pattern plus
// cone-limited canonical-normal propagation per suspect, with no
// sample axis at all. Entries are exact probabilities under the
// analytic model, so cfg.Samples and cfg.Seed are ignored.
//
// The dictionary adopts M and the changed E cells. Signature entries
// S = E − M are clamped at zero as in the Monte-Carlo build: downstream
// match scores assume S ≥ 0, and the analytic E and M are computed
// independently per entry, so rounding can land a defect that cannot
// reach an output a hair below its baseline.
func buildDictionaryAnalytic(ctx context.Context, eng *engine.Analytic, m *timing.Model, patterns []logicsim.PatternPair, suspects []circuit.ArcID, cfg DictConfig) (*Dictionary, error) {
	start := time.Now()
	defer func() {
		dictBuildSecondsAnalytic.Add(time.Since(start).Seconds())
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dictBuildsAnalytic.Inc()

	mCrt, eCrt, err := eng.Signatures(ctx, patterns, suspects, cfg.Clk, cfg.SizeDist, cfg.Workers)
	if err != nil {
		return nil, err
	}
	d := NewDictionary(suspects, len(m.C.Outputs), len(patterns), mCrt, eCrt)
	d.C, d.Patterns, d.Clk = m.C, patterns, cfg.Clk
	return d, nil
}
