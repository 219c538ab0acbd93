// Quickstart: the whole diagnosis pipeline in one page.
//
// Generate a benchmark circuit, inject a random delay defect into one
// sampled die, observe its failing behavior at the cut-off period,
// and ask the diagnosis to find the defect.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small benchmark circuit and the diagnosis pipeline over it,
	// with the Table I experiment parameters.
	c, err := repro.GenerateCircuit("small", 2003)
	if err != nil {
		log.Fatal(err)
	}
	p, err := repro.NewPipeline(c, repro.DefaultExperimentConfig("small"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n", c.Name, c.Stats())

	// One manufactured die with one random delay defect on it: case 4
	// of `ddd-table1 -circuits small`.
	cs := p.NewCase(4)
	truth := cs.Truth[0]
	fmt.Printf("injected (hidden from the diagnosis): %v\n", truth)

	// Diagnostic patterns through the fault site, a cut-off period at
	// the 90th percentile of the longest targeted path, the failing
	// behavior a tester would observe, suspect pruning, the
	// probabilistic fault dictionary and the ranking.
	if err := p.Run(context.Background(), cs); err != nil {
		log.Fatal(err)
	}
	if cs.Escaped {
		log.Fatal("the defect escaped at this clock; try another case")
	}
	fmt.Printf("%d diagnostic patterns, clk = %.3f\n", len(cs.Pats), cs.Clk)
	fmt.Printf("behavior matrix: %d failing entries\n", cs.B.FailCount())
	if cs.Ranked == nil {
		fmt.Println("\nthe injected defect was pruned from the suspect set")
		return
	}

	ranked := cs.Ranked[repro.AlgRev]
	fmt.Printf("\nAlg_rev ranking over %d suspects (top 5):\n", len(ranked))
	for i, rk := range ranked[:min(5, len(ranked))] {
		mark := ""
		if rk.Arc == truth.Arc {
			mark = "   <== the injected defect"
		}
		a := c.Arcs[rk.Arc]
		fmt.Printf("  %d. arc %-4d %s -> %s  err=%.4f%s\n",
			i+1, rk.Arc, c.Gates[a.From].Name, c.Gates[a.To].Name, rk.Score, mark)
	}
	fmt.Printf("\nthe injected defect is ranked %d of %d\n", cs.Position(repro.AlgRev, truth.Arc), len(ranked))
}
