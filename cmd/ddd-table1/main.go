// ddd-table1 regenerates Table I of the paper: diagnosis success
// rates for the benchmark circuits, three K values each, under
// Alg_sim Method I, Method II and Alg_rev, next to the published
// numbers.
//
// The full run (all 8 circuits, N=20, default samples) takes a while
// on the large circuits; -quick runs a reduced configuration and
// -circuits selects a subset.
//
// Usage:
//
//	ddd-table1 [-circuits s1196,s1238] [-n 20] [-samples 96] [-quick] [-v] [-timings]
//	          [-checkpoint DIR [-resume]]
//
// With -checkpoint, every completed case is journaled crash-safely to
// DIR/<circuit>.journal; -resume then skips journaled cases on a
// rerun, reproducing the final table byte-identically (per-case
// random streams derive from the case index, so a resumed case is
// bit-exactly the case a single run would have computed).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
)

func main() {
	circuits := flag.String("circuits", strings.Join(eval.Table1Circuits(), ","), "comma-separated circuit list")
	n := flag.Int("n", 20, "instances per circuit (paper: 20)")
	samples := flag.Int("samples", 96, "dictionary Monte-Carlo samples")
	patterns := flag.Int("patterns", 12, "max diagnostic patterns per case")
	maxSuspects := flag.Int("max-suspects", 0, "cap on suspect-set size (0 = unlimited)")
	workers := flag.Int("workers", 0, "dictionary-build worker goroutines (0 = NumCPU); never changes results")
	engineName := flag.String("engine", "", "timing engine for clk selection and dictionaries (mc|analytic; default mc)")
	quick := flag.Bool("quick", false, "reduced configuration for a fast smoke run")
	verbose := flag.Bool("v", false, "per-case detail")
	timings := flag.Bool("timings", false, "per-stage wall-time breakdown and Monte-Carlo dictionary sub-stages per circuit (stderr)")
	wideSize := flag.Bool("wide-size", false, "dictionary assumes Uniform[0.25,1.5] cell-delay defect sizes")
	csvOut := flag.String("csv", "", "also write measured rows as CSV to this file")
	checkpoint := flag.String("checkpoint", "", "journal completed cases to DIR/<circuit>.journal (crash-safe)")
	resume := flag.Bool("resume", false, "skip cases already in the checkpoint journal (requires -checkpoint)")
	flag.Parse()
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "ddd-table1: -resume requires -checkpoint")
		os.Exit(2)
	}
	if *checkpoint != "" {
		if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ddd-table1:", err)
			os.Exit(1)
		}
	}

	var all []eval.Table1Row
	for _, name := range strings.Split(*circuits, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cfg := eval.DefaultConfig(name)
		cfg.N = *n
		cfg.DictSamples = *samples
		cfg.MaxPatterns = *patterns
		cfg.MaxSuspects = *maxSuspects
		cfg.Workers = *workers
		cfg.Engine = *engineName
		if *wideSize {
			cfg.AssumedSizeFactor = [2]float64{0.25, 1.5}
		}
		if *quick {
			cfg.N = 8
			cfg.DictSamples = 48
			cfg.MaxPatterns = 8
			cfg.ClkSamples = 100
			if cfg.MaxSuspects == 0 {
				cfg.MaxSuspects = 150
			}
		}
		if *checkpoint != "" {
			cfg.CheckpointPath = filepath.Join(*checkpoint, name+".journal")
			cfg.Resume = *resume
		}
		start := time.Now()
		ledger := core.DictLedger()
		res, err := eval.RunCircuit(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddd-table1: %s: %v\n", name, err)
			os.Exit(1)
		}
		meanSuspects := "-" // every case escaped
		if ms := res.MeanSuspects(); !math.IsNaN(ms) {
			meanSuspects = fmt.Sprintf("%.0f", ms)
		}
		fmt.Fprintf(os.Stderr, "%s: %s | escape=%.0f%% meanSuspects=%s (%v)\n",
			name, res.Stats, 100*res.EscapeRate(), meanSuspects, time.Since(start).Round(time.Second))
		if *timings && res.Timings != nil {
			if err := res.Timings.WriteTable(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "ddd-table1:", err)
			}
			writeDictLedger(os.Stderr, ledger, core.DictLedger())
		}
		if *verbose {
			if err := eval.WriteReport(os.Stderr, res, true); err != nil {
				fmt.Fprintln(os.Stderr, "ddd-table1:", err)
			}
		}
		all = append(all, eval.MeasuredRows(res)...)
	}
	fmt.Println()
	fmt.Print(eval.FormatTable1(all))
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddd-table1:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := eval.WriteTable1CSV(f, all); err != nil {
			fmt.Fprintln(os.Stderr, "ddd-table1:", err)
			os.Exit(1)
		}
	}
}

// writeDictLedger prints the Monte-Carlo dictionary build's sub-stage
// ledger accrued between two core.DictLedger reads, one
// dict_build.<name> row each: stage seconds, summed over workers, then
// the defect re-simulations run and skipped.
func writeDictLedger(w io.Writer, before, after []core.LedgerEntry) {
	for i, e := range after {
		v := e.Value - before[i].Value
		if strings.HasSuffix(e.Name, "_s") {
			fmt.Fprintf(w, "%-28s %12.6f\n", "dict_build."+e.Name, v)
		} else {
			fmt.Fprintf(w, "%-28s %12.0f\n", "dict_build."+e.Name, v)
		}
	}
}
