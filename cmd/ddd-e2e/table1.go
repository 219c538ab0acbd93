package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/synth"
)

// evalWorkers is the dictionary-build parallelism of the Table I
// workloads, fixed at the reference host's core count so every host
// does the same work.
const evalWorkers = 2

// tablePasses is how often a run executes its case list. A case's time
// is its least over the passes: on the shared reference host one case
// took up to 50 % longer in one pass than in another of the same run,
// and over three runs of table1_analytic the sum of per-case minimums
// ranged 4.5 %, the sum of per-case medians 8 %.
//
// In a traced run the middle pass records no spans, and
// trace.overhead_ratio is the median over cases of a case's mean wall
// time in the other passes over its wall time in that one.
const tablePasses = 3

// untracedPass is the pass a traced run leaves untraced.
const untracedPass = 1

// tableSpec is a Table I workload: a frozen list of cases per circuit
// under one timing engine with the Table I defaults (12 patterns, 96
// dictionary samples, 200 clock samples).
//
// Case j (1-based) of a circuit is the single case of an
// eval.RunOnCircuitCtx call with N = 1 and Seed = j, so each case has
// its own wall time. The list does not depend on -seed: the cost of one
// case on one circuit spans 0.03 s to 20 s (s1196, analytic engine,
// seeds 1-40), so a seed-drawn 20-second sample of cases could not
// repeat within any usable bound.
type tableSpec struct {
	engine   string
	circuits []circuitCases
}

type circuitCases struct {
	circuit string
	n       int
}

// tableStages are the pipeline stages eval records in
// CircuitResult.Timings, in pipeline order.
var tableStages = []string{"atpg", "clk_select", "behavior_sim", "suspects", "dict_build", "diagnose"}

// tableOutcome is what one Table I run measured.
type tableOutcome struct {
	setup    []float64 // seconds per set-up repetition
	caseSecs []float64 // per case, the least wall time over the passes
	caseCPU  []float64 // per case, the least process CPU seconds over the passes
	overhead float64   // traced runs: median over cases of traced over untraced wall time
	execWall float64   // summed wall time of every case execution
	runs     int       // case executions attempted
	failed   int       // case executions that returned an error
	problems []string
	results  []*eval.CircuitResult // first pass, one per circuit
	stages   *obs.Stages           // every execution's Timings merged
	counters map[string]float64    // obs.Default() deltas over all passes
	digest   string                // first pass's result digest
}

// caseRef is one case of a tableSpec: circuit index and eval seed.
type caseRef struct{ circuit, seed int }

// setUp generates the workload's circuits, the Table I set-up, and
// records how long that took.
func (out *tableOutcome) setUp(spec tableSpec, tr *tracer) ([]*circuit.Circuit, error) {
	begin := time.Now()
	circuits := make([]*circuit.Circuit, 0, len(spec.circuits))
	for _, cc := range spec.circuits {
		c, err := synth.GenerateNamed(cc.circuit, eval.DefaultConfig(cc.circuit).CircuitSeed)
		if err != nil {
			return nil, err
		}
		circuits = append(circuits, c)
	}
	end := time.Now()
	out.setup = append(out.setup, end.Sub(begin).Seconds())
	tr.record(span{Name: "setup", Start: tr.at(begin), End: tr.at(end), Parent: -1})
	return circuits, nil
}

// runTable sets up, then runs the case list tablePasses times. Every
// pass must produce the same result digest. The set-up is repeated
// after every case execution, so setup_s, their median, samples the
// whole run rather than one moment of it.
func runTable(ctx context.Context, spec tableSpec, tr *tracer) (*tableOutcome, error) {
	out := &tableOutcome{stages: obs.NewStages()}
	circuits, err := out.setUp(spec, tr)
	if err != nil {
		return nil, err
	}

	var list []caseRef
	for ci, cc := range spec.circuits {
		cfg := eval.DefaultConfig(cc.circuit)
		out.results = append(out.results, &eval.CircuitResult{Config: cfg, Stats: circuits[ci].Stats()})
		for j := 1; j <= cc.n; j++ {
			list = append(list, caseRef{ci, j})
		}
	}
	before, err := defaultCounters()
	if err != nil {
		return nil, err
	}
	walls := make([][]float64, len(list))
	cpus := make([][]float64, len(list))
	for pass := 0; pass < tablePasses; pass++ {
		tr.enable(pass != untracedPass)
		h := sha256.New()
		for k, c := range list {
			name := spec.circuits[c.circuit].circuit
			cfg := eval.DefaultConfig(name)
			cfg.Engine = spec.engine
			cfg.Workers = evalWorkers
			cfg.N = 1
			cfg.Seed = uint64(c.seed)
			out.runs++
			cpu, begin := cpuTime(), time.Now()
			res, err := eval.RunOnCircuitCtx(ctx, circuits[c.circuit], cfg)
			end := time.Now()
			used := cpuTime() - cpu
			if err != nil {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("pass %d: %s case %d: %v", pass+1, name, c.seed, err))
				continue
			}
			wall := end.Sub(begin).Seconds()
			walls[k] = append(walls[k], wall)
			cpus[k] = append(cpus[k], used.Seconds())
			out.execWall += wall
			out.stages.Merge(res.Timings)
			for _, cs := range res.Cases {
				digestCase(h, name, c.seed, cs)
			}
			if pass == 0 {
				out.results[c.circuit].Cases = append(out.results[c.circuit].Cases, res.Cases...)
			}
			traceCase(tr, pass*len(list)+k+1, name, begin, end, res.Timings)
			if _, err := out.setUp(spec, tr); err != nil {
				return nil, err
			}
		}
		digest := hex.EncodeToString(h.Sum(nil))
		if pass == 0 {
			out.digest = digest
		} else if digest != out.digest {
			out.problems = append(out.problems, fmt.Sprintf("pass %d result digest %s differs from pass 1's %s", pass+1, digest, out.digest))
		}
	}
	tr.enable(true)
	var ratios []float64
	for k, w := range walls {
		if len(w) > 0 {
			out.caseSecs = append(out.caseSecs, slices.Min(w))
			out.caseCPU = append(out.caseCPU, slices.Min(cpus[k]))
		}
		if tr != nil && len(w) == tablePasses {
			traced := (sum(w) - w[untracedPass]) / (tablePasses - 1)
			ratios = append(ratios, traced/w[untracedPass])
		}
	}
	out.overhead = median(ratios)
	after, err := defaultCounters()
	if err != nil {
		return nil, err
	}
	out.counters = deltas(before, after)
	return out, nil
}

// digestCase folds the outcome of one case into the result digest: its
// escape flag, suspect count and every method's rank of the true arc.
func digestCase(h hash.Hash, circuitName string, seed int, cs eval.CaseResult) {
	fmt.Fprintf(h, "%s %d escaped=%t suspects=%d ranks=", circuitName, seed, cs.Escaped, cs.Suspects)
	for _, m := range core.Methods {
		fmt.Fprintf(h, " %d", cs.Rank[m])
	}
	fmt.Fprintln(h)
}

// traceCase records a case's eval.run span and one child span per
// stage. Stage durations are exact (the always-on Timings); their
// offsets are not recorded by eval, so the children are laid back to
// back from the case's start.
func traceCase(tr *tracer, caseNo int, circuitName string, begin, end time.Time, st *obs.Stages) {
	if !tr.recording() {
		return
	}
	id := tr.record(span{Name: "eval.run", Path: circuitName, Start: tr.at(begin), End: tr.at(end), Parent: -1, Req: uint64(caseNo)})
	at := tr.at(begin)
	for _, ns := range st.Snapshot() {
		d := int64(ns.Seconds * 1e9)
		tr.record(span{Name: ns.Name, Start: at, End: at + d, Parent: id, Req: uint64(caseNo)})
		at += d
	}
}

// metrics adds the Table I end-to-end and per-layer metrics to m.
// Throughput and CPU cost use each case's least time over the passes;
// the per-layer numbers are means per pass.
func (out *tableOutcome) metrics(m map[string]float64) {
	m["setup_s"] = median(out.setup)
	if total := sum(out.caseSecs); total > 0 {
		m["throughput_per_s"] = float64(len(out.caseSecs)) / total
	}
	if n := len(out.caseCPU); n > 0 {
		m["cpu_ms_per_op"] = 1e3 * sum(out.caseCPU) / float64(n)
	}
	if out.overhead > 0 {
		m["trace.overhead_ratio"] = out.overhead
	}

	perPass := func(x float64) float64 { return x / tablePasses }
	stages := map[string]obs.StageStat{}
	busy := 0.0
	for _, ns := range out.stages.Snapshot() {
		stages[ns.Name] = ns.StageStat
		busy += ns.Seconds
	}
	share := func(s float64) float64 {
		if out.execWall == 0 {
			return 0
		}
		return s / out.execWall
	}
	for _, name := range tableStages {
		m[name+".busy_s"] = perPass(stages[name].Seconds)
	}
	m["atpg.calls"] = perPass(float64(stages["atpg"].Calls))
	m["atpg.patterns"] = perPass(float64(stages["atpg"].Items))
	m["atpg.share"] = share(stages["atpg"].Seconds)
	m["dict_build.calls"] = perPass(float64(stages["dict_build"].Calls))
	m["dict_build.samples"] = perPass(out.counters["ddd_core_dict_build_samples_total"])
	m["dict_build.share"] = share(stages["dict_build"].Seconds)
	m["clk_select.calls"] = perPass(float64(stages["clk_select"].Calls))
	m["timing.samples"] = perPass(out.counters["ddd_timing_samples_total"])
	patterns := float64(stages["behavior_sim"].Items)
	skipped := out.counters["ddd_behavior_sim_skipped_total"]
	m["behavior_sim.patterns"] = perPass(patterns)
	m["behavior_sim.skipped"] = perPass(skipped)
	if patterns > 0 {
		m["behavior_sim.skip_ratio"] = skipped / patterns
	}
	m["suspects.arcs"] = perPass(float64(stages["suspects"].Items))
	m["suspects.words"] = perPass(out.counters["ddd_suspect_words_total"])
	m["diagnose.calls"] = perPass(float64(stages["diagnose"].Calls))

	// eval.self_s is the case wall time no stage accounts for, so the
	// stage busy times plus eval.self_s sum to eval.wall_s exactly.
	m["eval.wall_s"] = perPass(out.execWall)
	m["eval.self_s"] = perPass(out.execWall - busy)
	cases, escaped, pruned := 0, 0, 0
	rev, rows := 0.0, 0
	for _, r := range out.results {
		for _, cs := range r.Cases {
			cases++
			switch {
			case cs.Escaped:
				escaped++
			case !cs.TruthInSuspects:
				pruned++
			}
		}
		if len(r.Cases) == 0 {
			continue
		}
		for _, row := range eval.MeasuredRows(r) {
			rev += row.Rev
			rows++
		}
	}
	m["eval.cases"] = float64(cases)
	m["eval.escaped"] = float64(escaped)
	m["eval.truth_pruned"] = float64(pruned)
	if rows > 0 {
		m["eval.alg_rev_success"] = rev / float64(rows)
	}
}

// runTableWorkload runs a Table I workload and fills rec. The digest
// must equal want, the golden digest of this exact case list.
func runTableWorkload(ctx context.Context, spec tableSpec, want string, tr *tracer, rec *runRecord) error {
	out, err := runTable(ctx, spec, tr)
	if err != nil {
		return err
	}
	out.metrics(rec.Metrics)
	rec.Attempted = out.runs
	rec.Failed = out.failed
	rec.Digest = out.digest
	rec.Problems = append(rec.Problems, out.problems...)
	if out.digest != want {
		rec.Problems = append(rec.Problems, fmt.Sprintf("result digest %s, want %s (%s)", out.digest, want, goldenFile))
	}
	return nil
}
