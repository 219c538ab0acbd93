// ddd-vcd runs one timed simulation of a two-vector pattern (optionally
// with a delay defect injected) and dumps the full waveform as a VCD
// file for GTKWave or any other waveform viewer — handy for looking at
// exactly how a defect's late transition or hazard reaches an output.
//
// Usage:
//
//	ddd-vcd -profile mini -o out.vcd [-site 5 -size 1.5] [-seed 3]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/rng"
	"repro/internal/tsim"
)

func main() {
	profile := flag.String("profile", "mini", "circuit profile")
	circuitSeed := flag.Uint64("circuit-seed", 2003, "circuit generation seed")
	seed := flag.Uint64("seed", 3, "case seed (instance + pattern)")
	site := flag.Int("site", -1, "defect arc (-1 = fault free)")
	size := flag.Float64("size", 1.0, "defect size in mean cell delays")
	out := flag.String("o", "", "output VCD file (default stdout)")
	timescale := flag.Float64("timescale", 1000, "VCD ticks per delay unit")
	flag.Parse()

	if err := run(*profile, *circuitSeed, *seed, *site, *size, *out, *timescale); err != nil {
		fmt.Fprintln(os.Stderr, "ddd-vcd:", err)
		os.Exit(1)
	}
}

func run(profile string, circuitSeed, seed uint64, site int, size float64, out string, timescale float64) error {
	c, err := repro.GenerateCircuit(profile, circuitSeed)
	if err != nil {
		return err
	}
	m := repro.NewTimingModel(c, repro.DefaultTimingParams())
	inst := m.SampleInstanceSeeded(seed, 0)

	// A pattern: through the defect site when one is given, else
	// through the first arc that admits one (many arcs in reconvergent
	// logic are unsensitizable; scan until a pattern exists).
	var tests []repro.PathTestResult
	if site >= 0 {
		tests = repro.DiagnosticPatterns(m, repro.ArcID(site), 1, rng.Derive(seed, 1))
		if len(tests) == 0 {
			return fmt.Errorf("no pattern found through arc %d", site)
		}
	} else {
		for a := 0; a < len(c.Arcs) && len(tests) == 0; a++ {
			tests = repro.DiagnosticPatterns(m, repro.ArcID(a), 1, rng.Derive(seed, uint64(a)))
		}
		if len(tests) == 0 {
			return fmt.Errorf("no sensitizable arc found in %s", c.Name)
		}
	}
	pair := tests[0].Pair

	opts := tsim.Quiescent()
	if site >= 0 {
		opts.DefectArc = repro.ArcID(site)
		opts.DefectExtra = size * m.MeanCellDelay()
	}
	res := tsim.Simulate(c, inst.Delays, pair, opts)

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := tsim.WriteVCD(w, c, res, timescale); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pattern %s on %s; defect arc %d; %d gates dumped\n",
		pair, c.Name, site, c.NumGates())
	return nil
}
