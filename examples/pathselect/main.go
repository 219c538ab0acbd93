// pathselect walks the pattern-generation workload of Sections G and
// H-4: pick a fault site, enumerate the longest paths through it,
// check which are really (statically) sensitizable, generate robust or
// non-robust two-vector tests for them, and attach the statistical
// timing length TL(p) of each tested path.
//
//	go run ./examples/pathselect
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/atpg"
	"repro/internal/rng"
	"repro/internal/timing"
)

func main() {
	c, err := repro.GenerateCircuit("small", 2003)
	if err != nil {
		log.Fatal(err)
	}
	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
	fmt.Printf("circuit %s: %s\n", c.Name, c.Stats())

	// The global critical paths, for context.
	fmt.Println("\nfive longest structural paths:")
	for i, p := range repro.KLongestPaths(model, 5) {
		fmt.Printf("  %d. %2d arcs, nominal %.3f\n", i+1, len(p.Arcs), p.Nominal)
	}

	// A mid-circuit fault site.
	site := repro.ArcID(len(c.Arcs) / 2)
	a := c.Arcs[site]
	fmt.Printf("\nfault site: arc %d (%s -> %s, pin %d)\n",
		site, c.Gates[a.From].Name, c.Gates[a.To].Name, a.Pin)

	// The longest structural paths through the site, and which of them
	// admit a test. In reconvergent logic many of the longest paths
	// are false — the reason the paper builds on false-path-aware
	// statistical timing analysis.
	paths := repro.KLongestPathsThrough(model, site, 12)
	gen := atpg.NewGenerator(c)
	r := rng.New(3)
	fmt.Printf("\n%-4s %5s %9s %-12s\n", "path", "arcs", "nominal", "testable as")
	for i, p := range paths {
		status := "false path (no test found)"
		for _, robust := range []bool{true, false} {
			found := false
			for _, rising := range []bool{true, false} {
				if _, err := gen.PathTest(p, rising, robust, r); err == nil {
					if robust {
						status = "robust"
					} else {
						status = "non-robust"
					}
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		fmt.Printf("%-4d %5d %9.3f %-12s\n", i+1, len(p.Arcs), p.Nominal, status)
	}

	// The full diagnostic flow: tests for the best sensitizable paths,
	// with the statistical timing length of each targeted path.
	tests := repro.DiagnosticPatterns(model, site, 6, 5)
	if len(tests) == 0 {
		log.Fatal("no diagnostic patterns for this site")
	}
	fmt.Printf("\ndiagnostic tests through the site (with TL quantiles):\n")
	mc := timing.NewMC(model)
	for i, tc := range tests {
		tl, err := mc.TimingLength(context.Background(), tc.Path.Arcs, 500, 23, 0)
		if err != nil {
			log.Fatal(err)
		}
		crit := "non-robust"
		if tc.Robust {
			crit = "robust"
		}
		fmt.Printf("  v%-2d %-10s path nominal %.3f | TL: q05=%.3f q50=%.3f q95=%.3f\n",
			i, crit, tc.Path.Nominal, tl.Quantile(0.05), tl.Quantile(0.5), tl.Quantile(0.95))
		if err := atpg.CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
			log.Fatalf("generated test failed verification: %v", err)
		}
	}
}
