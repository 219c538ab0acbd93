// dictflow demonstrates the precomputed-dictionary (effect-cause)
// workflow end to end, entirely through the public API and the
// compressed persistent form:
//
//  1. characterize a circuit once against a global pattern set,
//
//  2. compress and store the probabilistic fault dictionary,
//
//  3. reload it and diagnose failing dies against the stored file,
//
//  4. report the pattern set's arc coverage — the hard limit on what
//     the stored dictionary can ever diagnose.
//
//     go run ./examples/dictflow
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rng"
)

func main() {
	cfg := eval.DefaultConfig("small")
	cfg.MaxPatterns = 16
	cfg.DictSamples = 96

	// 1. Characterize once.
	sd, err := eval.BuildStatic(cfg, 200)
	if err != nil {
		log.Fatal(err)
	}
	cov := atpg.ArcCoverage(sd.C, sd.Patterns)
	fmt.Printf("characterized %s: %d patterns, %d-arc fault universe, clk %.3f\n",
		sd.C.Name, len(sd.Patterns), len(sd.Dict.Suspects), sd.Clk)
	fmt.Printf("pattern-set arc coverage: %d/%d (%.0f%%) — uncovered arcs are\n",
		cov.Covered, cov.TotalArcs, 100*cov.Fraction())
	fmt.Println("undiagnosable by this dictionary no matter the error function")

	// 2. Compress and store (here: an in-memory buffer; ddd-dict uses
	// a file).
	cd := core.Compress(sd.Dict)
	var store bytes.Buffer
	if err := cd.Save(&store, len(sd.C.Inputs)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored dictionary: %d bytes (%.0fx below dense)\n\n",
		store.Len(), float64(cd.DenseBytes())/float64(cd.Bytes()+1))

	// 3. Reload and diagnose a batch of failing dies.
	loaded, _, err := core.LoadCompressed(&store)
	if err != nil {
		log.Fatal(err)
	}
	injector := repro.NewInjector(sd.C, sd.Model)
	diagnosed, escaped, uncovered := 0, 0, 0
	for die := 0; die < 10; die++ {
		truth := injector.Sample(rng.New(uint64(100 + die)))
		inst := sd.Model.SampleInstanceSeeded(7, uint64(die))
		b := repro.SimulateBehavior(sd.C, inst, loaded.Patterns, truth, loaded.Clk)
		if !b.AnyFailure() {
			escaped++
			continue
		}
		ranked := loaded.Diagnose(b, core.AlgRev, 0)
		pos := 0
		for i, rk := range ranked {
			if rk.Arc == truth.Arc {
				pos = i + 1
				break
			}
		}
		if pos == 0 {
			uncovered++
			fmt.Printf("die %d: defect %v observed but outside the stored universe\n", die, truth)
			continue
		}
		diagnosed++
		fmt.Printf("die %d: defect %v ranked %d of %d\n", die, truth, pos, len(ranked))
	}
	fmt.Printf("\n%d diagnosed, %d escaped at the stored clk, %d outside the universe\n",
		diagnosed, escaped, uncovered)
	fmt.Println("(per-case targeted patterns — see examples/quickstart — trade the")
	fmt.Println(" one-time characterization for much better per-die coverage)")
}
