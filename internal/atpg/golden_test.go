package atpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// goldenPatternsSHA256 is the digest of DiagnosticPatterns over the
// table1_analytic case sites (see TestDiagnosticPatternsGolden). It pins
// pattern identity: any change to the PODEM search, its backtrace
// choices, its draws from the caller's rand, or the witness fallback
// changes it.
const goldenPatternsSHA256 = "f859b3a106299f543987724c762181befae54abd65db4f9e45a8476b650477fa"

// TestDiagnosticPatternsGolden hashes the diagnostic pattern sets that
// the end-to-end table1_analytic workload generates: s1196 and s1238
// cases 1-4 and s1488 cases 1-8 under the Table I defaults. Case j's
// site and ATPG stream derive exactly as in eval's per-case pipeline
// (eval.RunOnCircuitCtx with N = 1, Seed = j). The digest covers every
// pattern pair, its robust flag and its path's arcs, in order.
func TestDiagnosticPatternsGolden(t *testing.T) {
	h := sha256.New()
	for _, cc := range []struct {
		name  string
		cases int
	}{{"s1196", 4}, {"s1238", 4}, {"s1488", 8}} {
		cfg := eval.DefaultConfig(cc.name)
		c, err := synth.GenerateNamed(cc.name, cfg.CircuitSeed)
		if err != nil {
			t.Fatal(err)
		}
		m := timing.NewModel(c, cfg.Timing)
		inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
		for seed := uint64(1); seed <= uint64(cc.cases); seed++ {
			caseSeed := rng.DeriveN(seed, 0xca5e, 0)
			site := inj.Sample(rng.New(caseSeed)).Arc
			tests := atpg.DiagnosticPatterns(c, m.Nominal, site, cfg.MaxPatterns, rng.New(rng.Derive(caseSeed, 1)))
			for k, tc := range tests {
				fmt.Fprintf(h, "%s %d %d site=%d robust=%t pair=%s arcs=%v\n",
					cc.name, seed, k, site, tc.Robust, tc.Pair.String(), tc.Path.Arcs)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPatternsSHA256 {
		t.Errorf("diagnostic pattern digest %s, want %s", got, goldenPatternsSHA256)
	}
}
