// ddd-sta runs statistical static timing analysis on a circuit
// through a pluggable timing engine: arrival-time distributions per
// primary output, the circuit-delay distribution with quantiles,
// critical probabilities at a given clock, and per-arc statistical
// criticality. -engine mc (default) samples Monte-Carlo instances;
// -engine analytic answers in closed form (Clark moment matching,
// DESIGN.md §14) in a fraction of the time. Under -engine mc the
// report also sets the analytic engine's circuit-delay moments beside
// the sampled ones.
//
// Usage:
//
//	ddd-sta -profile s1196 [-engine mc|analytic] [-seed 2003] [-samples 2000] [-clk 25.0] [-workers N]
//	ddd-sta -bench circuit.bench
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro"
	"repro/internal/timing"
	tengine "repro/internal/timing/engine"
)

// options are the command-line flags.
type options struct {
	profile   string
	seed      uint64
	benchFile string
	samples   int
	mcSeed    uint64
	workers   int
	clk       float64
	top       int
	engine    string
}

// newFlags registers the flags on fs.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.profile, "profile", "s1196", "synthetic circuit profile")
	fs.Uint64Var(&o.seed, "seed", 2003, "circuit generation seed")
	fs.StringVar(&o.benchFile, "bench", "", ".bench netlist file (overrides -profile)")
	fs.IntVar(&o.samples, "samples", 2000, "Monte-Carlo instance samples")
	fs.Uint64Var(&o.mcSeed, "mc-seed", 7, "Monte-Carlo seed")
	fs.IntVar(&o.workers, "workers", 0, "Monte-Carlo worker goroutines (0 = NumCPU)")
	fs.Float64Var(&o.clk, "clk", 0, "cut-off period for critical probabilities (0 = 95% quantile)")
	fs.IntVar(&o.top, "top", 10, "outputs to list (slowest first)")
	fs.StringVar(&o.engine, "engine", "", "timing engine (mc|analytic; default mc)")
	return o
}

func main() {
	o := newFlags(flag.CommandLine)
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "ddd-sta:", err)
		os.Exit(1)
	}
}

// run prints the timing report of one circuit to w.
func run(w io.Writer, o *options) error {
	c, err := loadCircuit(o.benchFile, o.profile, o.seed)
	if err != nil {
		return err
	}
	m := repro.NewTimingModel(c, repro.DefaultTimingParams())
	eng, err := tengine.New(o.engine, m)
	if err != nil {
		return err
	}
	ctx := context.Background()
	fmt.Fprintf(w, "circuit %s: %s\n", c.Name, c.Stats())
	fmt.Fprintf(w, "engine: %s\n", eng.Name())
	fmt.Fprintf(w, "mean cell delay: %.4f\n\n", m.MeanCellDelay())

	res, err := eng.STA(ctx, o.samples, o.mcSeed, o.workers)
	if err != nil {
		return err
	}
	cd := res.CircuitDelay
	fmt.Fprintf(w, "circuit delay Δ(C): mean=%.3f σ=%.3f\n", cd.Mean(), cd.Std())
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		fmt.Fprintf(w, "  q%-4.2f = %.3f\n", q, cd.Quantile(q))
	}

	cutoff := o.clk
	if cutoff == 0 {
		cutoff = cd.Quantile(0.95)
	}
	fmt.Fprintf(w, "\ncritical probability P(Δ > %.3f) = %.4f\n", cutoff, res.CriticalProb(cutoff))

	// Under any other engine, set the closed-form moments beside the
	// running engine's.
	if ref := tengine.NewAnalytic(m); eng.Name() != ref.Name() {
		an, err := ref.STA(ctx, 0, 0, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "analytic engine: mean=%.3f σ=%.3f (%s mean=%.3f σ=%.3f)\n",
			an.CircuitDelay.Mean(), an.CircuitDelay.Std(), eng.Name(), cd.Mean(), cd.Std())
	}
	fmt.Fprintln(w)

	type row struct {
		name string
		mean float64
		crt  float64
	}
	rows := make([]row, len(res.Arrivals))
	for i, a := range res.Arrivals {
		rows[i] = row{name: c.Gates[c.Outputs[i]].Name, mean: a.Mean(), crt: a.Exceed(cutoff)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mean > rows[j].mean })
	n := o.top
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Fprintf(w, "slowest %d outputs:\n%-20s %10s %12s\n", n, "output", "mean", "P(>clk)")
	for _, r := range rows[:n] {
		fmt.Fprintf(w, "%-20s %10.3f %12.4f\n", r.name, r.mean, r.crt)
	}

	// Statistical criticality: which arcs actually carry the critical
	// path once variation is accounted for.
	cr, err := eng.Criticality(ctx, o.samples, o.mcSeed, o.workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmost critical arcs (P(on critical path)):\n")
	for _, a := range cr.Top(o.top) {
		arc := c.Arcs[a]
		fmt.Fprintf(w, "  %-5d %s -> %s (pin %d): %.3f\n",
			a, c.Gates[arc.From].Name, c.Gates[arc.To].Name, arc.Pin, cr.Prob[a])
	}

	// Deterministic slack at the cut-off on the nominal instance.
	slacks := m.Slacks(m.NominalInstance(), cutoff)
	fmt.Fprintf(w, "\nmin-slack arcs at clk %.3f (nominal corner):\n", cutoff)
	for _, a := range timing.MinSlackArcs(slacks, o.top) {
		arc := c.Arcs[a]
		fmt.Fprintf(w, "  %-5d %s -> %s: slack %.3f\n",
			a, c.Gates[arc.From].Name, c.Gates[arc.To].Name, slacks[a])
	}
	return nil
}

func loadCircuit(benchFile, profile string, seed uint64) (*repro.Circuit, error) {
	if benchFile == "" {
		return repro.GenerateCircuit(profile, seed)
	}
	f, err := os.Open(benchFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ParseBench(f, benchFile)
}
