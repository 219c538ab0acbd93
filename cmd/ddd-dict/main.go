// ddd-dict drives the precomputed-dictionary (effect-cause) workflow:
// characterize a circuit once against a global pattern set, store the
// compressed probabilistic fault dictionary, then diagnose failing
// dies against the stored file — the classic dictionary flow the paper
// builds on ("assuming that computing and storing logic information in
// fault dictionary is not an issue").
//
// Usage:
//
//	ddd-dict build -profile small -o small.dict [-patterns 16] [-samples 96] [-workers N]
//	ddd-dict info small.dict
//	ddd-dict diagnose small.dict -profile small [-case 1] [-k 10 (<= 0: all)]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	tengine "repro/internal/timing/engine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = build(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "diagnose":
		err = diagnose(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddd-dict:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ddd-dict build|info|diagnose [flags]")
	os.Exit(2)
}

// experimentConfig assembles the shared eval.Config for build/diagnose.
func experimentConfig(profile string, patterns, samples int) eval.Config {
	cfg := eval.DefaultConfig(profile)
	cfg.MaxPatterns = patterns
	cfg.DictSamples = samples
	return cfg
}

func build(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	profile := fs.String("profile", "small", "circuit profile")
	out := fs.String("o", "circuit.dict", "output dictionary file")
	patterns := fs.Int("patterns", 16, "global pattern budget")
	samples := fs.Int("samples", 96, "Monte-Carlo samples")
	maxSuspects := fs.Int("max-suspects", 400, "fault-universe cap")
	workers := fs.Int("workers", 0, "dictionary-build worker goroutines (0 = NumCPU)")
	engineName := fs.String("engine", "", "timing engine for clk selection and the dictionary (mc|analytic; default mc)")
	_ = fs.Parse(args)

	cfg := experimentConfig(*profile, *patterns, *samples)
	// Parallelism never changes the built dictionary (per-sample streams
	// derive from the sample index), so -workers is a resource knob only.
	cfg.Workers = *workers
	cfg.Engine = *engineName
	start := time.Now()
	sd, err := eval.BuildStatic(cfg, *maxSuspects)
	if err != nil {
		return err
	}
	cd := core.Compress(sd.Dict)
	// Atomic write: a crash or full disk mid-save must never leave a
	// torn .dict file for ddd-serve to trip over.
	if err := cd.SaveFileAtomic(*out, len(sd.C.Inputs)); err != nil {
		return err
	}
	eng := *engineName
	if eng == "" {
		eng = tengine.DefaultName
	}
	fmt.Printf("built %s: %d suspects, %d patterns, clk %.3f (engine %s, %v)\n",
		*out, len(cd.Suspects), len(cd.Patterns), cd.Clk, eng, time.Since(start).Round(time.Millisecond))
	fmt.Printf("stored %d bytes (dense equivalent %d, %.0fx smaller)\n",
		cd.Bytes(), cd.DenseBytes(), float64(cd.DenseBytes())/float64(cd.Bytes()+1))
	return nil
}

func loadDict(path string) (*core.CompressedDictionary, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return core.LoadCompressed(f)
}

func info(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("info: dictionary file required")
	}
	cd, nIn, err := loadDict(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("dictionary %s\n", args[0])
	fmt.Printf("  inputs:   %d\n", nIn)
	fmt.Printf("  patterns: %d\n", len(cd.Patterns))
	fmt.Printf("  suspects: %d\n", len(cd.Suspects))
	fmt.Printf("  clk:      %.3f\n", cd.Clk)
	fmt.Printf("  storage:  %d bytes (dense %d)\n", cd.Bytes(), cd.DenseBytes())
	return nil
}

func diagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	profile := fs.String("profile", "small", "circuit profile the dictionary was built for")
	caseSeed := fs.Uint64("case", 1, "case seed (die instance + random defect)")
	k := fs.Int("k", 10, "candidates to print (<= 0 prints every suspect)")
	if len(args) < 1 {
		return fmt.Errorf("diagnose: dictionary file required")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cd, nIn, err := loadDict(args[0])
	if err != nil {
		return err
	}
	cfg := eval.DefaultConfig(*profile)
	c, err := synth.GenerateNamed(*profile, cfg.CircuitSeed)
	if err != nil {
		return err
	}
	if len(c.Inputs) != nIn {
		return fmt.Errorf("dictionary was built for %d inputs, circuit has %d", nIn, len(c.Inputs))
	}
	m := timing.NewModel(c, cfg.Timing)
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	df := inj.Sample(rng.New(*caseSeed))
	inst := m.SampleInstanceSeeded(*caseSeed, 42)
	fmt.Printf("injected %v\n", df)

	b := core.SimulateBehavior(c, inst.Delays, cd.Patterns, df.Arc, df.Size, cd.Clk)
	fmt.Printf("behavior: %d failing entries over %d patterns\n", b.FailCount(), len(cd.Patterns))
	if !b.AnyFailure() {
		return fmt.Errorf("the defect escaped the stored pattern set at clk %.3f", cd.Clk)
	}
	ranked := cd.Diagnose(b, core.AlgRev, *k)
	fmt.Printf("Alg_rev top %d of %d stored suspects:\n", len(ranked), len(cd.Suspects))
	for i, rk := range ranked {
		mark := ""
		if rk.Arc == df.Arc {
			mark = "  <== injected defect"
		}
		a := c.Arcs[rk.Arc]
		fmt.Printf("  %2d. arc %-5d %s->%s err=%.4f%s\n",
			i+1, rk.Arc, c.Gates[a.From].Name, c.Gates[a.To].Name, rk.Score, mark)
	}
	if pos := core.Position(ranked, df.Arc); pos > 0 {
		fmt.Printf("true defect ranked %d of %d\n", pos, len(cd.Suspects))
	} else if slices.Contains(cd.Suspects, df.Arc) {
		fmt.Printf("true defect ranked below the top %d\n", len(ranked))
	} else {
		fmt.Println("true defect not in the stored fault universe")
	}
	return nil
}
