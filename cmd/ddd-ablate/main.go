// ddd-ablate runs the extension experiments built on top of the
// paper's framework (its "future research" directions):
//
//	multi    — multiple simultaneous defects: single-shot top-K recall
//	           vs the iterative peel-and-re-diagnose loop (item 3);
//	autok    — automatic K selection from the score-gap heuristic
//	           (item 2): chosen K, success within it;
//	size     — sensitivity to the assumed defect-size distribution in
//	           the dictionary (paper default vs a wide uniform);
//	compress — sparse/quantized dictionary storage (item 4): bytes,
//	           compression ratio, ranking agreement with the dense form;
//	errfuncs — the additional explicit error functions (item 5) next to
//	           the paper's four methods;
//	static   — one precomputed dictionary for a global pattern set vs
//	           per-case targeted patterns (the effect-cause trade-off);
//	loc      — pattern yield under the launch-on-capture (broadside)
//	           constraint vs the enhanced-scan assumption.
//
// Usage:
//
//	ddd-ablate [-exp all] [-circuit small] [-n 10]
//	          [-checkpoint DIR [-resume]]
//
// With -checkpoint, the RunCircuit-based experiments journal every
// completed case to DIR/<experiment-variant>.journal (crash-safe
// temp-file+rename writes); -resume skips journaled cases on a rerun
// and reproduces the same numbers bit-exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// ckDir/ckResume hold the -checkpoint/-resume flags; withCheckpoint
// applies them to one experiment variant's config under a distinct
// journal name so variants resume independently.
var (
	ckDir    string
	ckResume bool
)

func withCheckpoint(cfg eval.Config, name string) eval.Config {
	if ckDir != "" {
		cfg.CheckpointPath = filepath.Join(ckDir, name+".journal")
		cfg.Resume = ckResume
	}
	return cfg
}

func main() {
	exp := flag.String("exp", "all", "experiment: multi, autok, size, compress, errfuncs or all")
	circuitName := flag.String("circuit", "small", "circuit profile")
	n := flag.Int("n", 10, "cases per experiment")
	checkpoint := flag.String("checkpoint", "", "journal completed cases to DIR/<experiment>.journal (crash-safe)")
	resume := flag.Bool("resume", false, "skip cases already journaled (requires -checkpoint)")
	flag.Parse()
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "ddd-ablate: -resume requires -checkpoint")
		os.Exit(2)
	}
	if *checkpoint != "" {
		if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ddd-ablate:", err)
			os.Exit(1)
		}
	}
	ckDir, ckResume = *checkpoint, *resume

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "ddd-ablate: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("static", func() error { return staticExp(*circuitName, *n) })
	run("loc", func() error { return locExp(*circuitName) })
	run("guardband", func() error { return guardbandExp(*circuitName, *n) })
	run("patterns", func() error { return patternsExp(*circuitName, *n) })
	run("multi", func() error { return multiExp(*circuitName, *n) })
	run("autok", func() error { return autokExp(*circuitName, *n) })
	run("size", func() error { return sizeExp(*circuitName, *n) })
	run("compress", func() error { return compressExp(*circuitName, *n) })
	run("errfuncs", func() error { return errfuncsExp(*circuitName, *n) })
}

func baseConfig(circuitName string, n int) eval.Config {
	cfg := eval.DefaultConfig(circuitName)
	cfg.N = n
	cfg.DictSamples = 64
	cfg.MaxPatterns = 8
	cfg.ClkSamples = 120
	return cfg
}

func patternsExp(circuitName string, n int) error {
	fmt.Printf("%-10s %10s %10s %12s\n", "patterns", "K=1", "K=5", "escape")
	for _, p := range []int{2, 4, 8, 12} {
		cfg := baseConfig(circuitName, n)
		cfg.MaxPatterns = p
		res, err := eval.RunCircuit(withCheckpoint(cfg, fmt.Sprintf("patterns-%d", p)))
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %9.0f%% %9.0f%% %11.0f%%\n", p,
			100*res.SuccessRate(core.AlgRev, 1),
			100*res.SuccessRate(core.AlgRev, 5),
			100*res.EscapeRate())
	}
	fmt.Println("(more targeted patterns = more dictionary columns to match against —")
	fmt.Println(" the paper's closing theme that pattern quality bounds diagnosis)")
	return nil
}

func guardbandExp(circuitName string, n int) error {
	cfg := baseConfig(circuitName, n)
	pts, err := eval.GuardbandCurve(cfg, []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99})
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %12s\n", "quantile", "escape", "false-alarm")
	for _, p := range pts {
		fmt.Printf("%-10.2f %9.0f%% %11.0f%%\n", p.Quantile, 100*p.Escape, 100*p.FalseAlarm)
	}
	fmt.Println("(the tester's dial: a tighter clock catches more defects at the")
	fmt.Println(" cost of failing good dies — failures M_crt already accounts for)")
	return nil
}

func locExp(circuitName string) error {
	c, err := synth.GenerateNamed(circuitName, 2003)
	if err != nil {
		return err
	}
	p, ok := synth.ProfileByName(circuitName)
	if !ok {
		return fmt.Errorf("unknown profile %s", circuitName)
	}
	if p.DFF == 0 {
		return fmt.Errorf("%s has no flip-flops; launch-on-capture needs state", circuitName)
	}
	sm := logicsim.BuildScanMap(c, p.PI, p.PO)
	tp := timing.DefaultParams()
	tp.SigmaGlobal, tp.SigmaLocal = 0.02, 0.08
	m := timing.NewModel(c, tp)
	es, loc := 0, 0
	sites := 0
	for site := 5; site < len(c.Arcs); site += 29 {
		if c.Gates[c.Arcs[site].To].Type == circuit.Output {
			continue
		}
		sites++
		es += len(atpg.DiagnosticPatterns(c, m.Nominal, circuit.ArcID(site), 3, rng.New(uint64(site))))
		loc += len(atpg.DiagnosticPatternsLoC(c, sm, circuit.ArcID(site), 3, 1500, rng.New(uint64(site))))
	}
	fmt.Printf("pattern yield over %d sites (max 3 per site):\n", sites)
	fmt.Printf("  enhanced scan (arbitrary V1,V2): %d\n", es)
	fmt.Printf("  launch-on-capture (broadside):   %d\n", loc)
	fmt.Println("(the broadside constraint shrinks the reachable pattern space —")
	fmt.Println(" the price of dropping the enhanced-scan assumption)")
	return nil
}

func staticExp(circuitName string, n int) error {
	cfg := baseConfig(circuitName, n)
	cfg.MaxPatterns = 16
	pre, err := eval.RunPrecomputed(cfg, 400)
	if err != nil {
		return err
	}
	tgt, err := eval.RunCircuit(withCheckpoint(baseConfig(circuitName, n), "static-targeted"))
	if err != nil {
		return err
	}
	fmt.Printf("precomputed dictionary: universe %d arcs, %d patterns\n", pre.Universe, pre.Patterns)
	for _, k := range []int{1, 5, 10} {
		fmt.Printf("K=%-2d  precomputed %3.0f%%   per-case targeted %3.0f%% (Alg_rev)\n",
			k, 100*pre.SuccessRate(core.AlgRev, k), 100*tgt.SuccessRate(core.AlgRev, k))
	}
	fmt.Println("(one stored dictionary serves every die, but its fixed pattern set")
	fmt.Println(" and single clk cover fewer sites than per-case targeted patterns —")
	fmt.Println(" the paper's point that accuracy depends on the pattern set)")
	return nil
}

func multiExp(circuitName string, n int) error {
	cfg := baseConfig(circuitName, n)
	for _, nd := range []int{1, 2, 3} {
		res, err := eval.RunMultiDefect(cfg, nd)
		if err != nil {
			return err
		}
		fmt.Printf("defects=%d: single-shot top-%d recall %.0f%%, iterative recall %.0f%%\n",
			nd, 3*nd, 100*res.RecallSingle(), 100*res.RecallIterative())
	}
	fmt.Println("(the single-defect assumption degrades gracefully with defect count;")
	fmt.Println(" naive greedy peeling does not beat the single-shot top-K — multi-")
	fmt.Println(" defect diagnosis needs better residual models, exactly the open")
	fmt.Println(" problem the paper's future-work item 3 flags)")
	return nil
}

func autokExp(circuitName string, n int) error {
	res, err := eval.RunCircuit(withCheckpoint(baseConfig(circuitName, n), "autok"))
	if err != nil {
		return err
	}
	fmt.Printf("mean auto-selected K: %.1f\n", res.MeanAutoK())
	fmt.Printf("success within auto K:  %.0f%%\n", 100*res.AutoKSuccessRate())
	for _, k := range []int{1, 3, 5, 10} {
		fmt.Printf("success within fixed K=%-2d: %.0f%%\n", k, 100*res.SuccessRate(core.AlgRev, k))
	}
	return nil
}

func sizeExp(circuitName string, n int) error {
	base := baseConfig(circuitName, n)
	wide := base
	wide.AssumedSizeFactor = [2]float64{0.25, 1.5}
	for _, c := range []struct {
		name string
		ck   string
		cfg  eval.Config
	}{{"paper default (N(0.75, 0.125²)·cell)", "size-default", base}, {"wide uniform (U[0.25,1.5]·cell)", "size-wide", wide}} {
		res, err := eval.RunCircuit(withCheckpoint(c.cfg, c.ck))
		if err != nil {
			return err
		}
		fmt.Printf("%-38s K=1 %3.0f%%  K=5 %3.0f%%  K=10 %3.0f%% (Alg_rev)\n", c.name,
			100*res.SuccessRate(core.AlgRev, 1),
			100*res.SuccessRate(core.AlgRev, 5),
			100*res.SuccessRate(core.AlgRev, 10))
	}
	return nil
}

func compressExp(circuitName string, n int) error {
	cfg := baseConfig(circuitName, n)
	cfg.DictSamples = 96
	c, err := synth.GenerateNamed(circuitName, cfg.CircuitSeed)
	if err != nil {
		return err
	}
	p, err := repro.NewPipeline(c, cfg)
	if err != nil {
		return err
	}
	// The first experiment case that reaches the dictionary.
	var cs *repro.Case
	for i := 0; i < n && (cs == nil || cs.Dict == nil); i++ {
		cs = p.NewCase(i)
		if err := p.Run(context.Background(), cs); err != nil {
			return err
		}
	}
	if cs == nil || cs.Dict == nil {
		return fmt.Errorf("no diagnosable case among the first %d", n)
	}
	cd := core.Compress(cs.Dict)
	fmt.Printf("case %d: suspects %d, patterns %d, outputs %d\n", cs.Index, len(cs.Suspects), len(cs.Pats), len(c.Outputs))
	fmt.Printf("dense signatures:      %d bytes\n", cd.DenseBytes())
	fmt.Printf("compressed signatures: %d bytes (%.1fx smaller)\n", cd.Bytes(),
		float64(cd.DenseBytes())/float64(cd.Bytes()+1))
	agree := 0
	for _, method := range core.Methods {
		if cs.Ranked[method][0].Arc == cd.Diagnose(cs.B, method)[0].Arc {
			agree++
		}
	}
	fmt.Printf("top-1 agreement dense vs compressed: %d/%d methods\n", agree, len(core.Methods))
	return nil
}

func errfuncsExp(circuitName string, n int) error {
	// Re-run the standard experiment but rank with the extra error
	// functions on each diagnosable case, measured at K = 5.
	cfg := withCheckpoint(baseConfig(circuitName, n), "errfuncs")
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return err
	}
	res, err := eval.RunOnCircuit(c, cfg)
	if err != nil {
		return err
	}
	// Built-in methods from the stored ranks.
	for _, m := range core.Methods {
		fmt.Printf("%-12s K=5 success %.0f%%\n", m, 100*res.SuccessRate(m, 5))
	}
	fmt.Println("(registered extension error functions are exercised per-case in")
	fmt.Println(" examples/errorfuncs and the core test suite)")
	return nil
}
