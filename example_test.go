package repro_test

import (
	"fmt"
	"strings"

	"repro"
)

// Example_benchIO round-trips a tiny netlist through the ISCAS'89
// .bench reader and writer.
func Example_benchIO() {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(o)
o = NAND(a, b)
`
	c, err := repro.ParseBench(strings.NewReader(src), "tiny")
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Stats())
	// Output:
	// gates=4 logic=1 arcs=3 PI=2 PO=1 depth=2
}

// Example_timingModel characterizes a netlist and reports the nominal
// arc delays' unit.
func Example_timingModel() {
	src := "INPUT(a)\nOUTPUT(o)\no = NOT(a)\n"
	c, err := repro.ParseBench(strings.NewReader(src), "inv")
	if err != nil {
		panic(err)
	}
	m := repro.NewTimingModel(c, repro.DefaultTimingParams())
	fmt.Printf("arcs: %d\n", len(m.Nominal))
	fmt.Printf("NOT arc nominal: %.2f\n", m.Nominal[0])
	// Output:
	// arcs: 2
	// NOT arc nominal: 0.60
}

// Example_methodScores evaluates the paper's four diagnosis error
// functions on one per-pattern consistency vector.
func Example_methodScores() {
	phi := []float64{0.5, 0.2}
	for _, m := range repro.Methods {
		fmt.Printf("%s: %.3f\n", m, m.Score(phi))
	}
	// Output:
	// Alg_sim-I: 0.600
	// Alg_sim-II: 0.350
	// Alg_sim-III: 0.100
	// Alg_rev: 0.890
}
