// ddd-diagnose runs one complete delay-defect diagnosis case with a
// full trace: it injects a random (or specified) defect into a sampled
// circuit instance, generates diagnostic patterns through the fault
// site, observes the behavior matrix at the cut-off period, prunes the
// suspects, builds the probabilistic fault dictionary, and prints the
// ranking of every diagnosis method. Defaults are the Table I
// experiment parameters, so -case i reproduces case i of ddd-table1
// under the same -engine.
//
// Usage:
//
//	ddd-diagnose -profile s1196 [-case 0] [-engine mc] [-arc 123] [-size 1.2] [-k 10] [-timings]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/tsim"
)

// options are the command-line flags.
type options struct {
	profile     string
	circuitSeed uint64
	caseIdx     int
	arc         int
	size        float64
	patterns    int
	samples     int
	k           int
	quantile    float64
	engine      string
	vcd         string
	timings     bool
}

// newFlags registers the flags on fs, defaulting every experiment
// parameter to the Table I configuration.
func newFlags(fs *flag.FlagSet) *options {
	def := repro.DefaultExperimentConfig("")
	o := &options{}
	fs.StringVar(&o.profile, "profile", "s1196", "synthetic circuit profile")
	fs.Uint64Var(&o.circuitSeed, "circuit-seed", def.CircuitSeed, "circuit generation seed")
	fs.IntVar(&o.caseIdx, "case", 0, "experiment case (selects instance and random defect, as in ddd-table1)")
	fs.IntVar(&o.arc, "arc", -1, "defect arc (-1 = the case's random arc)")
	fs.Float64Var(&o.size, "size", 0, "defect size (0 = the case's random size from the paper's model)")
	fs.IntVar(&o.patterns, "patterns", def.MaxPatterns, "max diagnostic patterns")
	fs.IntVar(&o.samples, "samples", def.DictSamples, "dictionary Monte-Carlo samples")
	fs.IntVar(&o.k, "k", 10, "candidates to print")
	fs.Float64Var(&o.quantile, "clk-quantile", def.ClkQuantile, "cut-off quantile of the targeted path delay")
	fs.StringVar(&o.engine, "engine", "mc", "timing engine for clk and dictionary: mc or analytic")
	fs.StringVar(&o.vcd, "vcd", "", "dump the first failing pattern's waveform (with the defect) to this VCD file")
	fs.BoolVar(&o.timings, "timings", false, "per-stage wall-time breakdown (stderr)")
	return o
}

func main() {
	o := newFlags(flag.CommandLine)
	flag.Parse()
	if _, err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "ddd-diagnose:", err)
		os.Exit(1)
	}
}

// errEscaped reports a case whose defect never shows at the tester.
var errEscaped = errors.New("the defect escaped at this clock; try a larger -size or lower -clk-quantile")

// run traces one case to w and returns the true arc's 1-based rank
// under every method (0 when pruned from the suspects).
func run(w io.Writer, o *options) (map[repro.Method]int, error) {
	cfg := repro.DefaultExperimentConfig(o.profile)
	cfg.CircuitSeed = o.circuitSeed
	cfg.MaxPatterns = o.patterns
	cfg.DictSamples = o.samples
	cfg.ClkQuantile = o.quantile
	cfg.Engine = o.engine
	c, err := repro.GenerateCircuit(o.profile, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	p, err := repro.NewPipeline(c, cfg)
	if err != nil {
		return nil, err
	}
	if o.timings {
		defer func() {
			if err := p.Stages.WriteTable(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "ddd-diagnose:", err)
			}
		}()
	}
	fmt.Fprintf(w, "circuit %s: %s\n", c.Name, c.Stats())

	cs := p.NewCase(o.caseIdx)
	if o.arc >= len(c.Arcs) {
		return nil, fmt.Errorf("-arc %d out of range (circuit has %d arcs)", o.arc, len(c.Arcs))
	}
	if o.arc >= 0 {
		cs.Truth[0].Arc = repro.ArcID(o.arc)
	}
	if o.size > 0 {
		cs.Truth[0].Size = o.size
	}
	df := cs.Truth[0]
	a := c.Arcs[df.Arc]
	fmt.Fprintf(w, "injected %v: %s -> %s (pin %d)\n", df, c.Gates[a.From].Name, c.Gates[a.To].Name, a.Pin)

	if err := p.Run(context.Background(), cs); err != nil {
		return nil, err
	}
	if len(cs.Tests) == 0 {
		return nil, fmt.Errorf("no diagnostic patterns found for arc %d", df.Arc)
	}
	fmt.Fprintf(w, "generated %d diagnostic patterns:\n", len(cs.Tests))
	for i, tc := range cs.Tests {
		crit := "non-robust"
		if tc.Robust {
			crit = "robust"
		}
		fmt.Fprintf(w, "  v%-2d %-10s target path len=%d nominal=%.3f\n", i, crit, len(tc.Path.Arcs), tc.Path.Nominal)
	}
	fmt.Fprintf(w, "cut-off period clk = %.3f (q%.2f of the longest targeted path, %s engine)\n\n",
		cs.Clk, o.quantile, p.Engine.Name())
	fmt.Fprintf(w, "behavior matrix B (%d outputs x %d patterns), %d failing entries:\n%s\n",
		cs.B.Rows, cs.B.Cols, cs.B.FailCount(), cs.B)
	if cs.Escaped {
		return nil, errEscaped
	}
	if o.vcd != "" {
		if err := writeVCD(w, o.vcd, c, cs); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(w, "suspect arcs after cause-effect pruning: %d\n", len(cs.Suspects))
	fmt.Fprintf(w, "true arc in suspect set: %v\n\n", cs.TruthInSuspects() > 0)
	ranks := make(map[repro.Method]int)
	if cs.Ranked == nil {
		fmt.Fprintf(w, "true defect not in the suspect set\n")
		return ranks, nil
	}
	for _, method := range repro.Methods {
		ranked := cs.Ranked[method]
		fmt.Fprintf(w, "%s ranking (top %d):\n", method, o.k)
		for i, rk := range ranked[:min(o.k, len(ranked))] {
			mark := ""
			if rk.Arc == df.Arc {
				mark = " <== injected defect"
			}
			ra := c.Arcs[rk.Arc]
			fmt.Fprintf(w, "  %2d. arc %-5d %s->%s score=%.6g%s\n",
				i+1, rk.Arc, c.Gates[ra.From].Name, c.Gates[ra.To].Name, rk.Score, mark)
		}
		ranks[method] = cs.Position(method, df.Arc)
		fmt.Fprintf(w, "  true defect ranked %d of %d\n\n", ranks[method], len(ranked))
	}
	return ranks, nil
}

// writeVCD dumps the first failing pattern's waveform, defect included.
func writeVCD(w io.Writer, path string, c *repro.Circuit, cs *repro.Case) error {
	j := cs.B.FailingPatterns()
	if len(j) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	df := cs.Truth[0]
	opts := tsim.Quiescent()
	opts.DefectArc = df.Arc
	opts.DefectExtra = df.Size
	res := tsim.Simulate(c, cs.Inst.Delays, cs.Pats[j[0]], opts)
	if err := tsim.WriteVCD(f, c, res, 1000); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "waveform of failing pattern v%d written to %s\n\n", j[0], path)
	return nil
}
