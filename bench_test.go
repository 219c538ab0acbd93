// Benchmarks regenerating the paper's evaluation artifacts (one bench
// per table/figure) plus the ablation benches for the design choices
// called out in DESIGN.md. The Table-I benches run a scaled-down
// configuration so `go test -bench=.` stays laptop-sized; the full
// paper-fidelity run is `cmd/ddd-table1`. Accuracy numbers are
// attached to the benchmark output via ReportMetric, so the bench log
// doubles as a shape check.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/timing/engine"
	"repro/internal/tsim"
)

// benchTable1Config is the scaled-down Table-I configuration used by
// the benches (the paper-fidelity parameters live in eval.DefaultConfig
// and cmd/ddd-table1).
func benchTable1Config(circuit string) eval.Config {
	cfg := eval.DefaultConfig(circuit)
	cfg.N = 4
	cfg.DictSamples = 48
	cfg.MaxPatterns = 8
	cfg.ClkSamples = 100
	cfg.MaxSuspects = 200
	return cfg
}

// benchTable1 runs the Table-I experiment for one circuit profile and
// reports success rates as metrics.
func benchTable1(b *testing.B, circuit string) {
	b.ReportAllocs()
	var res *eval.CircuitResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunCircuit(benchTable1Config(circuit))
		if err != nil {
			b.Fatal(err)
		}
	}
	ks := eval.Table1KValues(circuit)
	kTop := ks[len(ks)-1]
	b.ReportMetric(100*res.SuccessRate(core.AlgRev, kTop), fmt.Sprintf("rev@K%d_%%", kTop))
	b.ReportMetric(100*res.SuccessRate(core.MethodII, kTop), fmt.Sprintf("II@K%d_%%", kTop))
	b.ReportMetric(100*res.SuccessRate(core.MethodI, kTop), fmt.Sprintf("I@K%d_%%", kTop))
	b.ReportMetric(100*res.EscapeRate(), "escape_%")
}

// Table I: one bench per benchmark circuit row group. The large
// circuits only run with -timeout raised; -short skips them.
func BenchmarkTable1S1196(b *testing.B) { benchTable1(b, "s1196") }
func BenchmarkTable1S1238(b *testing.B) { benchTable1(b, "s1238") }
func BenchmarkTable1S1423(b *testing.B) { benchTable1(b, "s1423") }
func BenchmarkTable1S1488(b *testing.B) { benchTable1(b, "s1488") }

func BenchmarkTable1S5378(b *testing.B) {
	if testing.Short() {
		b.Skip("large circuit in -short mode")
	}
	benchTable1(b, "s5378")
}

// Figure 1: the logic-vs-timing resolution sweeps.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Figure1(120, 12, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// Figure 2: the dictionary matching example (pure arithmetic).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure2()
		if r.Winner[core.AlgRev] != 1 {
			b.Fatal("Figure 2 example changed")
		}
	}
}

// Figure 3: the equivalence-checking error decomposition of one case.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// setupCase prepares one diagnosable case on the "small" profile,
// shared by the ablation benches.
func setupCase(b *testing.B) (*timing.Model, []logicsim.PatternPair, []ArcID, *core.Behavior, float64, ArcID, dist.Dist) {
	b.Helper()
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		b.Fatal(err)
	}
	tp := timing.DefaultParams()
	tp.SigmaGlobal, tp.SigmaLocal = 0.02, 0.08
	m := timing.NewModel(c, tp)
	inj := defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
	truth := inj.Sample(rng.New(2))
	tests := atpg.DiagnosticPatterns(c, m.Nominal, truth.Arc, 8, rng.New(11))
	if len(tests) == 0 {
		b.Fatal("no patterns")
	}
	pats := make([]logicsim.PatternPair, len(tests))
	clk := 0.0
	mc := timing.NewMC(m)
	for i, tc := range tests {
		pats[i] = tc.Pair
		tl, err := mc.TimingLength(context.Background(), tc.Path.Arcs, 200, 13, 0)
		if err != nil {
			b.Fatal(err)
		}
		clk = max(clk, tl.Quantile(0.9))
	}
	inst := m.SampleInstanceSeeded(2, 0)
	bh := core.SimulateBehavior(c, inst.Delays, pats, truth.Arc, truth.Size, clk)
	if !bh.AnyFailure() {
		b.Fatal("case escaped")
	}
	strict, relaxed := core.SuspectArcsTiered(c, pats, bh)
	suspects := append(strict, relaxed...)
	slices.Sort(suspects)
	return m, pats, suspects, bh, clk, truth.Arc, inj.AssumedSizeDist()
}

// BenchmarkAblationSamples: dictionary cost and ranking stability vs
// Monte-Carlo sample count.
func BenchmarkAblationSamples(b *testing.B) {
	m, pats, suspects, bh, clk, truth, sizeDist := setupCase(b)
	for _, samples := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			var rank int
			for i := 0; i < b.N; i++ {
				dict, err := core.BuildDictionary(context.Background(), m, pats, suspects, core.DictConfig{
					Clk: clk, Samples: samples, Seed: 17,
					SizeDist: sizeDist,
				})
				if err != nil {
					b.Fatal(err)
				}
				rank = core.Position(dict.Diagnose(bh, core.AlgRev), truth)
			}
			b.ReportMetric(float64(rank), "truth_rank")
		})
	}
}

// BenchmarkAblationIncremental: difference-propagation defect
// re-simulation (tsim.RunDefectDiff) vs a full run with the defect
// overlay, over the same (sample, pattern, suspect) triples the
// dictionary build re-simulates (identical captures, very different
// cost). Both arms pay the same baseline run per (sample, pattern).
func BenchmarkAblationIncremental(b *testing.B) {
	m, pats, suspects, _, clk, _, sizeDist := setupCase(b)
	c := m.C
	const samples = 32
	delays := make([][]float64, samples)
	sizes := make([][]float64, samples)
	for s := range delays {
		delays[s] = m.SampleInstanceSeeded(17, uint64(s)).Delays
		r := rng.NewDerived(18, uint64(s))
		sizes[s] = make([]float64, len(suspects))
		for i := range sizes[s] {
			sizes[s][i] = sizeDist.Sample(r)
		}
	}
	for _, mode := range []string{"incremental", "full"} {
		b.Run(mode, func(b *testing.B) {
			eng, full := tsim.NewEngine(c), tsim.NewEngine(c)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for s := range delays {
					for _, pat := range pats {
						base := eng.Run(delays[s], pat, tsim.AtClock(clk))
						for i, arc := range suspects {
							if !base.Transitioned(c.Arcs[arc].From) {
								continue
							}
							if mode == "incremental" {
								eng.RunDefectDiff(delays[s], base, arc, sizes[s][i], clk)
								continue
							}
							opts := tsim.AtClock(clk)
							opts.DefectArc = arc
							opts.DefectExtra = sizes[s][i]
							full.Run(delays[s], pat, opts)
						}
					}
				}
			}
		})
	}
}

// BenchmarkAblationClarkVsMC: the closed-form engine (Clark moment
// matching) vs Monte-Carlo STA on the same model (speed and the
// mean-estimate gap).
func BenchmarkAblationClarkVsMC(b *testing.B) {
	c, err := synth.GenerateNamed("medium", 2003)
	if err != nil {
		b.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	for _, eng := range []struct {
		name    string
		e       timing.Engine
		samples int
	}{{"analytic", engine.NewAnalytic(m), 0}, {"mc1000", timing.NewMC(m), 1000}} {
		b.Run(eng.name, func(b *testing.B) {
			var mu float64
			for i := 0; i < b.N; i++ {
				res, err := eng.e.STA(context.Background(), eng.samples, 7, 0)
				if err != nil {
					b.Fatal(err)
				}
				mu = res.CircuitDelay.Mean()
			}
			b.ReportMetric(mu, "mean_delay")
		})
	}
}

// BenchmarkAblationRobust: pattern generation cost for robust-only vs
// robust+non-robust diagnostic pattern sets, with the pattern yield.
func BenchmarkAblationRobust(b *testing.B) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		b.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	site := ArcID(len(c.Arcs) / 2)
	paths := path.KLongestThrough(c, m.Nominal, site, 40)
	for _, mode := range []struct {
		name           string
		allowNonRobust bool
	}{{"robust-only", false}, {"robust+nonrobust", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var yield int
			for i := 0; i < b.N; i++ {
				tests := atpg.PathSetTests(c, paths, mode.allowNonRobust, rng.New(3))
				yield = len(tests)
			}
			b.ReportMetric(float64(yield), "patterns")
		})
	}
}

// --- Microbenchmarks of the substrates -------------------------------------

func BenchmarkLogicSimWords(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	r := rng.New(5)
	in := make([]uint64, len(c.Inputs))
	for i := range in {
		in[i] = r.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logicsim.EvalWordsInto(nil, c, in)
	}
	b.SetBytes(int64(len(c.Gates) * 8))
}

func BenchmarkTimedSim(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	r := rng.New(5)
	pairs := randomPairs(c, 16, r)
	eng := tsim.NewEngine(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(inst.Delays, pairs[i%len(pairs)], tsim.Quiescent())
	}
}

func BenchmarkMonteCarloSTA(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	m := timing.NewModel(c, timing.DefaultParams())
	mc := timing.NewMC(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.STA(context.Background(), 100, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkATPGPathTest(b *testing.B) {
	c, _ := synth.GenerateNamed("small", 2003)
	m := timing.NewModel(c, timing.DefaultParams())
	site := ArcID(len(c.Arcs) / 2)
	paths := path.KLongestThrough(c, m.Nominal, site, 10)
	gen := atpg.NewGenerator(c)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		_, _ = gen.PathTest(p, i%2 == 0, false, r)
	}
}

func BenchmarkKLongestThrough(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	m := timing.NewModel(c, timing.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path.KLongestThrough(c, m.Nominal, ArcID(i%len(c.Arcs)), 8)
	}
}

func BenchmarkScoap(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.ComputeScoap(c)
	}
}

func BenchmarkCriticality(b *testing.B) {
	c, _ := synth.GenerateNamed("medium", 2003)
	m := timing.NewModel(c, timing.DefaultParams())
	mc := timing.NewMC(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Criticality(context.Background(), 200, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressAndPersist(b *testing.B) {
	m, pats, suspects, _, clk, _, sizeDist := setupCase(b)
	dict, err := core.BuildDictionary(context.Background(), m, pats, suspects, core.DictConfig{
		Clk: clk, Samples: 48, Seed: 17, SizeDist: sizeDist,
	})
	if err != nil {
		b.Fatal(err)
	}
	nIn := len(m.C.Inputs)
	b.ReportAllocs()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		cd := core.Compress(dict)
		buf.Reset()
		if err := cd.Save(&buf, nIn); err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.LoadCompressed(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkDiagnoseOnly(b *testing.B) {
	m, pats, suspects, bh, clk, _, sizeDist := setupCase(b)
	dict, err := core.BuildDictionary(context.Background(), m, pats, suspects, core.DictConfig{
		Clk: clk, Samples: 48, Seed: 17, SizeDist: sizeDist,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict.Diagnose(bh, core.Methods[i%len(core.Methods)])
	}
}

// --- helpers ---------------------------------------------------------------

// randomPairs generates n random two-vector patterns.
func randomPairs(c *circuit.Circuit, n int, r *rand.Rand) []logicsim.PatternPair {
	out := make([]logicsim.PatternPair, n)
	for i := range out {
		v1 := make(logicsim.Vector, len(c.Inputs))
		v2 := make(logicsim.Vector, len(c.Inputs))
		for j := range v1 {
			v1[j] = r.IntN(2) == 1
			v2[j] = r.IntN(2) == 1
		}
		out[i] = logicsim.PatternPair{V1: v1, V2: v2}
	}
	return out
}
