package atpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/path"
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

// goldenAttemptsSHA256 is the digest of every PODEM attempt's outcome
// over the table1_analytic case sites (see TestAttemptsGolden). It pins
// the search itself: its objective order, its backtrace choices and
// backtrack counts, and every draw the randomized restarts take from
// the caller's rand.
const goldenAttemptsSHA256 = "fef38d5288cc7acb996f4befc31e5cd9a707bc92e3a37f147d57a6c4d872a4a7"

// analyticCase is the ATPG input of one case of the end-to-end
// table1_analytic workload.
type analyticCase struct {
	circuit     string
	seed        uint64 // the case number
	c           *circuit.Circuit
	nominal     []float64
	site        circuit.ArcID
	maxPatterns int
	atpgSeed    uint64 // seeds the case's ATPG stream
}

// analyticCases returns the table1_analytic cases: s1196 and s1238
// cases 1-4 and s1488 cases 1-8 under the Table I defaults. Case j's
// site and ATPG stream derive exactly as in eval's per-case pipeline
// (eval.RunOnCircuitCtx with N = 1, Seed = j).
func analyticCases(t *testing.T) []analyticCase {
	t.Helper()
	var out []analyticCase
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
			out = append(out, analyticCase{
				circuit:     cc.name,
				seed:        seed,
				c:           c,
				nominal:     m.Nominal,
				site:        inj.Sample(rng.New(caseSeed)).Arc,
				maxPatterns: cfg.MaxPatterns,
				atpgSeed:    rng.Derive(caseSeed, 1),
			})
		}
	}
	return out
}

// TestDiagnosticPatternsGolden hashes the diagnostic pattern sets that
// the end-to-end table1_analytic workload generates. The digest covers
// every pattern pair, its robust flag and its path's arcs, in order.
func TestDiagnosticPatternsGolden(t *testing.T) {
	h := sha256.New()
	for _, tc := range analyticCases(t) {
		tests := atpg.DiagnosticPatterns(tc.c, tc.nominal, tc.site, tc.maxPatterns, rng.New(tc.atpgSeed))
		for k, res := range tests {
			fmt.Fprintf(h, "%s %d %d site=%d robust=%t pair=%s arcs=%v\n",
				tc.circuit, tc.seed, k, tc.site, res.Robust, res.Pair.String(), res.Path.Arcs)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPatternsSHA256 {
		t.Errorf("diagnostic pattern digest %s, want %s", got, goldenPatternsSHA256)
	}
}

// TestSensitizedPathsThroughMatchesScalar pins the word-parallel
// witness search to the trial-at-a-time oracle on the table1_analytic
// case sites — which include the table1_mc sites, s1196 and s1238
// cases 1-2, since the engine does not enter site or stream
// derivation. The try counts cover one trial, a ragged single block, a
// full block, a ragged second block and DiagnosticPatterns' budget;
// small wants stop the search partway through a block.
func TestSensitizedPathsThroughMatchesScalar(t *testing.T) {
	kept := 0
	for _, tc := range analyticCases(t) {
		for _, tries := range []int{1, 63, 64, 65, 130, 720} {
			for _, want := range []int{1, 3, 12} {
				seed := rng.Derive(tc.atpgSeed, uint64(tries))
				got := atpg.SensitizedPathsThrough(tc.c, tc.site, want, tries, rng.New(seed))
				exp := atpg.SensitizedPathsThroughScalar(tc.c, tc.site, want, tries, rng.New(seed))
				if len(got) != len(exp) {
					t.Fatalf("%s case %d tries=%d want=%d: %d witnesses, oracle %d",
						tc.circuit, tc.seed, tries, want, len(got), len(exp))
				}
				for k := range got {
					g, e := got[k], exp[k]
					if !slices.Equal(g.Path.Arcs, e.Path.Arcs) || g.Pair.String() != e.Pair.String() || g.Robust != e.Robust {
						t.Fatalf("%s case %d tries=%d want=%d witness %d: %v %s robust=%t, oracle %v %s robust=%t",
							tc.circuit, tc.seed, tries, want, k, g.Path.Arcs, g.Pair, g.Robust, e.Path.Arcs, e.Pair, e.Robust)
					}
				}
				kept += len(got)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no witness found on any site: the check is vacuous")
	}
	t.Logf("%d witnesses matched", kept)
}

// TestExhaustedAttemptFailsEveryRestart checks, over the structural
// paths DiagnosticPatterns tries for the table1_analytic sites, that
// every PathTest whose deterministic attempt 0 exhausts its search
// below the backtrack budget also fails every randomized restart: such
// an attempt has proven the path untestable under the criterion. Each
// path's criteria and polarities run in PathTest's order until one
// succeeds, as in PathSetTests.
func TestExhaustedAttemptFailsEveryRestart(t *testing.T) {
	exhausted, budgetHit := 0, 0
	for _, tc := range analyticCases(t) {
		paths := path.KLongestThrough(tc.c, tc.nominal, tc.site, max(6*tc.maxPatterns, 100))
		gen := atpg.NewGenerator(tc.c)
		r := rng.New(tc.atpgSeed)
		for i, p := range paths {
		criteria:
			for _, robust := range []bool{true, false} {
				for _, rising := range []bool{true, false} {
					outs, err := gen.Attempts(p, rising, robust, r)
					if err != nil {
						continue // conflicting direct assignments
					}
					if outs[0].Backtracks >= atpg.BacktrackLimit {
						budgetHit++
					} else if !outs[0].Solved {
						exhausted++
						if len(outs) != atpg.Restarts+1 || outs[len(outs)-1].Solved {
							t.Errorf("%s case %d path %d (robust=%t rising=%t): attempt 0 exhausted after %d backtracks, yet a restart found a test",
								tc.circuit, tc.seed, i, robust, rising, outs[0].Backtracks)
						}
					}
					if outs[len(outs)-1].Solved {
						break criteria
					}
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no attempt 0 exhausted its search: the check is vacuous")
	}
	t.Logf("%d exhausted attempts, %d budget hits", exhausted, budgetHit)
}

// TestAttemptsGolden runs the PODEM attempt loop — both criteria, both
// polarities — on every structural path DiagnosticPatterns tries for
// the table1_analytic sites, with one running rand per case as
// TestExhaustedAttemptFailsEveryRestart has, and hashes every
// attempt's (Solved, Backtracks). A restart's backtrack count depends
// on the choices it draws, so a change in how the search consumes r
// changes the digest even where the patterns do not.
func TestAttemptsGolden(t *testing.T) {
	h := sha256.New()
	calls, restarts := 0, 0
	for _, tc := range analyticCases(t) {
		paths := path.KLongestThrough(tc.c, tc.nominal, tc.site, max(6*tc.maxPatterns, 100))
		gen := atpg.NewGenerator(tc.c)
		r := rng.New(tc.atpgSeed)
		for i, p := range paths {
			for _, robust := range []bool{true, false} {
				for _, rising := range []bool{true, false} {
					outs, err := gen.Attempts(p, rising, robust, r)
					calls++
					restarts += max(len(outs)-1, 0)
					fmt.Fprintf(h, "%s %d %d robust=%t rising=%t err=%v", tc.circuit, tc.seed, i, robust, rising, err)
					for _, o := range outs {
						fmt.Fprintf(h, " %t/%d", o.Solved, o.Backtracks)
					}
					fmt.Fprintln(h)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenAttemptsSHA256 {
		t.Errorf("PODEM attempt digest %s, want %s", got, goldenAttemptsSHA256)
	}
	if restarts == 0 {
		t.Fatal("no randomized restart ran: the digest does not cover the draws from r")
	}
	t.Logf("%d Attempts calls, %d randomized restarts", calls, restarts)
}

// TestImplicationStaysPreallocated runs every PathTest — both criteria,
// both polarities — of every structural path DiagnosticPatterns tries
// for the table1_analytic sites, on one Generator per circuit, and
// fails if the implication trail, worklist or cone-marking stack ever
// grows past the capacity NewGenerator gave it: two trail entries per
// gate, one worklist slot per fan-out edge and one stack slot per
// gate. It then checks that PathTest on a
// path whose search exhausts without a test allocates nothing.
func TestImplicationStaysPreallocated(t *testing.T) {
	gens := map[*circuit.Circuit]*atpg.Generator{}
	var untestable func()
	calls := 0
	for _, tc := range analyticCases(t) {
		gen := gens[tc.c]
		if gen == nil {
			gen = atpg.NewGenerator(tc.c)
			gens[tc.c] = gen
		}
		edges := 0
		for i := range tc.c.Gates {
			edges += len(tc.c.Gates[i].Fanout)
		}
		trail0, work0, cone0 := gen.Capacities()
		if trail0 != 2*len(tc.c.Gates) || work0 != edges || cone0 != len(tc.c.Gates) {
			t.Fatalf("%s: trail capacity %d, worklist capacity %d, cone stack capacity %d; want %d, %d and %d",
				tc.circuit, trail0, work0, cone0, 2*len(tc.c.Gates), edges, len(tc.c.Gates))
		}
		paths := path.KLongestThrough(tc.c, tc.nominal, tc.site, max(6*tc.maxPatterns, 100))
		r := rng.New(tc.atpgSeed)
		for i, p := range paths {
			for _, robust := range []bool{true, false} {
				for _, rising := range []bool{true, false} {
					_, err := gen.PathTest(p, rising, robust, r)
					calls++
					if trail, work, cone := gen.Capacities(); trail != trail0 || work != work0 || cone != cone0 {
						t.Fatalf("%s case %d path %d (robust=%t rising=%t): trail capacity %d -> %d, worklist %d -> %d, cone stack %d -> %d",
							tc.circuit, tc.seed, i, robust, rising, trail0, trail, work0, work, cone0, cone)
					}
					if untestable != nil || !errors.Is(err, atpg.ErrUntestable) {
						continue
					}
					// Keep a path whose attempt 0 searched and exhausted
					// below the budget: every restart then fails too.
					outs, err := gen.Attempts(p, rising, robust, r)
					if err == nil && outs[0].Backtracks > 0 && outs[0].Backtracks < atpg.BacktrackLimit {
						untestable = func() {
							if _, err := gen.PathTest(p, rising, robust, r); !errors.Is(err, atpg.ErrUntestable) {
								t.Fatalf("PathTest = %v, want ErrUntestable", err)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d PathTest calls", calls)
	if untestable == nil {
		t.Fatal("no path exhausted a search: the allocation check is vacuous")
	}
	if n := testing.AllocsPerRun(20, untestable); n != 0 {
		t.Errorf("PathTest on an untestable path: %v allocations per run, want 0", n)
	}
}
