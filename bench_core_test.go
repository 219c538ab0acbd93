// Core Monte-Carlo kernel benchmarks — the tracked suite behind
// `make bench-core`. These cover the hottest loops in the repository
// (instance sampling, blocked STA propagation, criticality backtrace,
// and dictionary construction) on an s9234-class circuit with fixed
// seeds, so runs are comparable across commits. The committed baseline
// lives in benchmarks/core_baseline.txt; cmd/ddd-bench turns a fresh
// run plus that baseline into BENCH_core.json (speedups, allocs/op).
//
// Run single-threaded (`-cpu 1`, as `make bench-core` does): the
// tracked quantity is per-core throughput of the kernels themselves,
// not the fan-out scaling that par.For already provides.
package repro

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/timing/engine"
)

// benchCoreSeed roots all randomness of the core bench suite.
const benchCoreSeed = 2003

// benchCoreModel builds the s9234-class model shared by the suite.
func benchCoreModel(b *testing.B) *timing.Model {
	b.Helper()
	c, err := synth.GenerateNamed("s9234", benchCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	return timing.NewModel(c, timing.DefaultParams())
}

// mcClock is the Monte-Carlo q-quantile clock pick: the circuit-delay
// quantile of an STA run on the 0x51a9 sub-stream of seed.
func mcClock(b *testing.B, m *timing.Model, q float64, nSamples int, seed uint64) float64 {
	b.Helper()
	res, err := timing.NewMC(m).STA(context.Background(), nSamples, rng.Derive(seed, 0x51a9), 0)
	if err != nil {
		b.Fatal(err)
	}
	return res.CircuitDelay.Quantile(q)
}

// BenchmarkCoreMonteCarloSTA tracks the statistical STA sampling loop:
// 1000 instances of an s9234-class circuit per op.
func BenchmarkCoreMonteCarloSTA(b *testing.B) {
	mc, ctx := timing.NewMC(benchCoreModel(b)), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.STA(ctx, 1000, 7, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCoreMonteCarloCriticality tracks the critical-path
// backtrace loop: 500 instances per op.
func BenchmarkCoreMonteCarloCriticality(b *testing.B) {
	mc, ctx := timing.NewMC(benchCoreModel(b)), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Criticality(ctx, 500, 7, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(500*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCoreTimingLength tracks the path timing-length estimator:
// 2000 instances over one long path per op.
func BenchmarkCoreTimingLength(b *testing.B) {
	m := benchCoreModel(b)
	c := m.C
	site := ArcID(len(c.Arcs) / 2)
	paths := path.KLongestThrough(c, m.Nominal, site, 1)
	if len(paths) == 0 {
		b.Fatal("no path through bench site")
	}
	arcs := [][]ArcID{paths[0].Arcs}
	mc, ctx := timing.NewMC(m), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.TimingLengths(ctx, arcs, 2000, 13, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchDictSetup prepares the fixed dictionary-build configuration:
// an s9234-class circuit, 2 random two-vector patterns, and 12 suspect
// arcs spread across the netlist.
func benchDictSetup(b *testing.B) (*timing.Model, []logicsim.PatternPair, []ArcID, core.DictConfig) {
	b.Helper()
	m := benchCoreModel(b)
	c := m.C
	r := rng.New(5)
	pats := make([]logicsim.PatternPair, 2)
	for i := range pats {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for k := range v1 {
			v1[k] = r.Uint64()&1 == 1
			v2[k] = r.Uint64()&1 == 1
		}
		pats[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	const nSus = 12
	suspects := make([]ArcID, nSus)
	for i := range suspects {
		suspects[i] = ArcID(i * len(c.Arcs) / nSus)
	}
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	cfg := core.DictConfig{
		Clk:      mcClock(b, m, 0.95, 200, 7),
		Samples:  1000,
		Seed:     17,
		Workers:  1,
		SizeDist: inj.AssumedSizeDist(),
	}
	return m, pats, suspects, cfg
}

// BenchmarkCoreBuildDictionary tracks end-to-end probabilistic fault
// dictionary construction — the dominant cost of the whole diagnosis
// pipeline: 1000 Monte-Carlo samples x 2 patterns x 12 suspects on an
// s9234-class circuit, single worker.
func BenchmarkCoreBuildDictionary(b *testing.B) {
	m, pats, suspects, cfg := benchDictSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildDictionary(context.Background(), m, pats, suspects, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCoreBuildDictionaryCase tracks the Monte-Carlo dictionary
// build as a Table I case runs it: case 3 of the default s1196
// configuration, prepared by eval.Pipeline (ATPG patterns, the
// path-quantile clk, the observed behavior and the tiered suspects),
// then the pipeline's Dictionary stage alone is timed, single worker.
// Unlike BenchmarkCoreBuildDictionary's 2 random patterns and 12
// spread suspects, this mix has the workload's ~10 patterns, ~650
// suspects and 96 samples.
func BenchmarkCoreBuildDictionaryCase(b *testing.B) {
	cfg := eval.DefaultConfig("s1196")
	cfg.Workers = 1
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := eval.NewPipeline(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cs := p.NewCase(3)
	p.Patterns(cs)
	if err := p.Clock(ctx, cs, cfg.ClkQuantile); err != nil {
		b.Fatal(err)
	}
	p.Observe(cs)
	p.Suspects(cs)
	if !cs.B.AnyFailure() || cs.TruthInSuspects() == 0 {
		b.Fatal("bench case escaped or lost its truth arc")
	}
	seed := rng.Derive(cs.Seed, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Dictionary(ctx, cs, seed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.DictSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCoreAnalyticSTA tracks the closed-form SSTA pass (Clark
// moment-matched propagation, internal/timing/engine) on the same
// s9234-class circuit the MC suite uses. Its baseline line in
// benchmarks/core_baseline.txt is the MC engine's time for the same
// answer (BenchmarkCoreMonteCarloSTA), so the BENCH_core.json speedup
// reads as analytic-vs-Monte-Carlo.
func BenchmarkCoreAnalyticSTA(b *testing.B) {
	eng := engine.NewAnalytic(benchCoreModel(b))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.STA(ctx, 0, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreBuildDictionaryAnalytic tracks dictionary construction
// under the analytic engine — identical circuit, patterns, suspects
// and clk as BenchmarkCoreBuildDictionary, under engine.Analytic. Its
// committed baseline is the MC build's time, and `make bench-core`
// gates on a 10x analytic-over-MC speedup.
func BenchmarkCoreBuildDictionaryAnalytic(b *testing.B) {
	m, pats, suspects, cfg := benchDictSetup(b)
	cfg.Engine = engine.NewAnalytic(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildDictionary(context.Background(), m, pats, suspects, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats)*len(suspects))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// benchDiagSetup prepares the word-parallel diagnosis scenario: the
// s9234-class circuit, a broad 192-pattern production-style test set,
// one sampled die, and a deterministic sweep of candidate defect
// hypotheses spread across the netlist with small-delay sizes from the
// injector's assumed regime — the dictionary-style workload where most
// hypotheses provably cannot flip any capture. The last, gross
// hypothesis is the "observed" failing die the suspect bench prunes.
func benchDiagSetup(b *testing.B) (m *timing.Model, pats []logicsim.PatternPair, delays []float64, sites []ArcID, sizes []float64, clk float64) {
	b.Helper()
	m = benchCoreModel(b)
	c := m.C
	r := rng.New(rng.Derive(benchCoreSeed, 31))
	pats = make([]logicsim.PatternPair, 192)
	for i := range pats {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for k := range v1 {
			v1[k] = r.Uint64()&1 == 1
			v2[k] = r.Uint64()&1 == 1
		}
		pats[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	delays = m.SampleInstance(r).Delays
	clk = mcClock(b, m, 0.95, 200, 7)
	cell := m.MeanCellDelay()
	for i := 0; i < 10; i++ {
		sites = append(sites, ArcID((len(c.Arcs)/2+i*499)%len(c.Arcs)))
		sizes = append(sizes, float64(2+2*i)*cell)
	}
	// One gross-delay hypothesis: the failing die whose behavior seeds
	// the suspect-pruning benchmark.
	sites = append(sites, ArcID((len(c.Arcs)/2+9*499)%len(c.Arcs)))
	sizes = append(sizes, clk)
	return m, pats, delays, sites, sizes, clk
}

// BenchmarkCoreBehaviorSim tracks behavior-matrix simulation of the
// candidate-hypothesis sweep: one SimulateBehavior per (site, size)
// against the broad pattern set, the per-candidate cost of diagnosis.
// SimulateBehavior runs tsim once per pattern, as the committed
// baseline did; the row is folded into BENCH_core.json without a gate.
func BenchmarkCoreBehaviorSim(b *testing.B) {
	m, pats, delays, sites, sizes, clk := benchDiagSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, site := range sites {
			core.SimulateBehavior(m.C, delays, pats, site, sizes[k], clk)
		}
	}
	sims := float64(len(pats) * len(sites))
	b.ReportMetric(sims*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
}

// BenchmarkCoreDiagnosticPatterns tracks path-delay ATPG, the largest
// stage of an analytic-engine Table I case: DiagnosticPatterns (12
// patterns) through the fault sites of s1238 Table I cases 1-4, each
// site and ATPG stream derived as eval's per-case pipeline derives them
// (Table I defaults, Seed = case number).
func BenchmarkCoreDiagnosticPatterns(b *testing.B) {
	cfg := eval.DefaultConfig("s1238")
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		b.Fatal(err)
	}
	m := timing.NewModel(c, cfg.Timing)
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	var sites []ArcID
	var seeds []uint64
	for j := uint64(1); j <= 4; j++ {
		caseSeed := rng.DeriveN(j, 0xca5e, 0)
		sites = append(sites, inj.Sample(rng.New(caseSeed)).Arc)
		seeds = append(seeds, rng.Derive(caseSeed, 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, site := range sites {
			atpg.DiagnosticPatterns(c, m.Nominal, site, cfg.MaxPatterns, rng.New(seeds[k]))
		}
	}
	b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
}

// BenchmarkCoreSuspects tracks tiered suspect pruning of the failing
// die's behavior: sensitization plus transition-cone analysis of every
// failing pattern. The committed baseline is the scalar
// one-pattern-at-a-time walk; the production path packs 64 patterns
// per machine word, and `make bench-core` gates on a 4x speedup.
func BenchmarkCoreSuspects(b *testing.B) {
	m, pats, delays, sites, sizes, clk := benchDiagSetup(b)
	last := len(sites) - 1
	beh := core.SimulateBehavior(m.C, delays, pats, sites[last], sizes[last], clk)
	if !beh.AnyFailure() {
		b.Fatal("bench defect produced no failures")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SuspectArcsTiered(m.C, pats, beh)
	}
	b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
}
