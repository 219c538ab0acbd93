// errorfuncs compares the paper's four diagnosis error functions — and
// one custom function plugged in through the extension point — on a
// batch of injected-defect cases. This is the paper's central
// question: the same probabilistic fault dictionary, matched to the
// same failing behavior, ranks candidates differently depending on
// what "better match" means.
//
//	go run ./examples/errorfuncs
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
	"repro/internal/core"
)

func main() {
	cfg := repro.DefaultExperimentConfig("small")
	cfg.N = 12
	cfg.MaxPatterns = 8
	res, err := repro.RunExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("circuit %s, %d cases, escape rate %.0f%%, mean suspects %.0f\n\n",
		cfg.Circuit, cfg.N, 100*res.EscapeRate(), res.MeanSuspects())

	fmt.Printf("%-12s", "K")
	for _, m := range repro.Methods {
		fmt.Printf(" %11s", m)
	}
	fmt.Println()
	for _, k := range []int{1, 3, 5, 10} {
		fmt.Printf("%-12d", k)
		for _, m := range repro.Methods {
			fmt.Printf(" %10.0f%%", 100*res.SuccessRate(m, k))
		}
		fmt.Println()
	}

	// A custom error function through the extension point: L1 distance
	// instead of the Euclidean distance of Alg_rev. The paper's
	// conclusion — "search for a good error function first" — invites
	// exactly this kind of experiment.
	fmt.Println("\ncustom error function (L1 distance Σ|1-φ|) on one case:")
	demoCustom(cfg)
}

// demoCustom reruns case 1 of the experiment through the pipeline and
// ranks it with both Alg_rev and the custom L1 error function.
func demoCustom(cfg repro.ExperimentConfig) {
	c, err := repro.GenerateCircuit(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		log.Fatal(err)
	}
	p, err := repro.NewPipeline(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := p.NewCase(1)
	if err := p.Run(context.Background(), cs); err != nil {
		log.Fatal(err)
	}
	if cs.Ranked == nil {
		log.Fatal("escaped or pruned; pick another case")
	}

	l1 := func(phi []float64) float64 {
		sum := 0.0
		for _, v := range phi {
			sum += math.Abs(1 - v)
		}
		return sum
	}
	truth := cs.Truth[0].Arc
	custom := cs.Dict.DiagnoseErrorFunc(cs.B, l1)
	fmt.Printf("  injected arc %d: Alg_rev rank %d, L1 rank %d (of %d suspects)\n",
		truth, cs.Position(repro.AlgRev, truth), core.Position(custom, truth), len(cs.Suspects))
}
