package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/timing/engine"
)

// countBuildAllocs reports total heap allocations of one BuildDictionary
// call at the given sample count on the golden configuration, over
// nSus suspects spread evenly over the arcs (10 is the golden set),
// with a single worker (so the count is not diluted across goroutines
// — testing.AllocsPerRun only observes the calling goroutine) and
// under the analytic engine when analytic is set.
func countBuildAllocs(t *testing.T, samples, nSus int, analytic bool) float64 {
	t.Helper()
	m, pats, _, cfg := goldenDictSetup(t)
	cfg.Workers = 1
	cfg.Samples = samples
	if analytic {
		cfg.Engine = engine.NewAnalytic(m)
	}
	suspects := make([]circuit.ArcID, nSus)
	for i := range suspects {
		suspects[i] = circuit.ArcID(i * len(m.C.Arcs) / nSus)
	}
	return testing.AllocsPerRun(2, func() {
		if _, err := BuildDictionary(context.Background(), m, pats, suspects, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildDictionaryAllocBudget asserts the scratch-reuse contract of
// the build loop: steady-state allocations are independent of the
// Monte-Carlo sample count. Every per-sample buffer (instance delays,
// engine worklists, waveform arenas) lives in per-worker scratch and
// the failure counts in one shared block, all allocated once up front,
// so quadrupling Samples must not grow allocations beyond run-to-run
// noise. A violation here is exactly the regression class the hotalloc
// analyzer and the tracked allocs/op in BENCH_core.json exist to
// catch.
//
// The suspect arm asserts the same of the suspect axis, under both
// engines: the dictionary stores M and E once each as flat blocks, so
// quadrupling the suspects must not grow allocations beyond a small
// absolute slack either: one allocation per suspect would add 30, and
// the slack of 16 covers the engines' buffer growth (4–5 here).
func TestBuildDictionaryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	// Start above the warm-up region: the first few dozen samples still
	// grow the engines' worklist and waveform buffers toward their
	// high-water marks (amortized, O(log) growth events per call).
	// Past that, quadrupling Samples must not move the count beyond a
	// small absolute slack; O(samples) allocation would add hundreds of
	// allocations here and thousands at benchmark scale.
	lo := countBuildAllocs(t, 64, 10, false)
	hi := countBuildAllocs(t, 256, 10, false)
	if hi > lo+64 {
		t.Fatalf("allocations grow with sample count: %0.f allocs at 64 samples, %0.f at 256", lo, hi)
	}
	t.Logf("allocs: %.0f at 64 samples, %.0f at 256 samples", lo, hi)
	for _, analytic := range []bool{false, true} {
		lo := countBuildAllocs(t, 64, 10, analytic)
		hi := countBuildAllocs(t, 64, 40, analytic)
		if hi > lo+16 {
			t.Errorf("analytic=%v: allocations grow with suspect count: %.0f allocs at 10 suspects, %.0f at 40", analytic, lo, hi)
		}
		t.Logf("analytic=%v allocs: %.0f at 10 suspects, %.0f at 40 suspects", analytic, lo, hi)
	}
}

// TestCompressedDiagnoseAllocBudget pins the allocations of one
// compressed Diagnose, the per-request call of ddd-serve: the failing
// counts, one block of φ and the class scores, one block of the class
// sizes, order, tie groups and slots, and the ranking; the class sort
// allocates nothing. None of them is per suspect or per class, so a
// dictionary with more suspects and classes allocates no more.
func TestCompressedDiagnoseAllocBudget(t *testing.T) {
	const budget = 4
	small, b := tieDict()
	big, bb := randomDict(7, 40, 3, 5)
	for _, c := range []struct {
		d *Dictionary
		b *Behavior
	}{{small, b}, {big, bb}} {
		cd := Compress(c.d)
		if got := testing.AllocsPerRun(50, func() { cd.Diagnose(c.b, AlgRev, 0) }); got > budget {
			t.Errorf("%d suspects in %d classes: %v allocations per Diagnose, budget %d", len(cd.Suspects), cd.Classes(), got, budget)
		}
	}
}

// TestCompressedDiagnoseBytesIndependentOfSuspects pins what a
// diagnosis answer of K = 5 costs: its blocks are per class and its
// ranking holds five candidates, so sixteen times the suspects in the
// same classes allocate no more bytes per Diagnose. One 16 B ranking
// entry per suspect would add 11,520 B here; the slack is one byte per
// added suspect.
func TestCompressedDiagnoseBytesIndependentOfSuspects(t *testing.T) {
	const classes, rows, cols = 12, 3, 5
	e, b := randomE(11, classes, rows, cols)
	perCall := func(n int) float64 {
		suspects := make([]circuit.ArcID, n)
		sigs := make([][]float64, n)
		for si := range suspects {
			suspects[si] = circuit.ArcID(3 * si)
			c := si % classes
			sigs[si] = e[c*rows*cols : (c+1)*rows*cols]
		}
		cd := Compress(labeledDict(suspects, rows, cols, sigs...))
		if cd.Classes() != classes {
			t.Fatalf("%d suspects in %d classes, want %d", n, cd.Classes(), classes)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range runs {
			cd.Diagnose(b, AlgRev, 5)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const few, many = 48, 768
	lo, hi := perCall(few), perCall(many)
	if hi > lo+many-few {
		t.Fatalf("one Diagnose at k = 5 allocates %.0f B over %d suspects, %.0f B over %d", lo, few, hi, many)
	}
	t.Logf("one Diagnose at k = 5: %.0f B over %d suspects, %.0f B over %d", lo, few, hi, many)
}

// buildBytes reports the bytes one BuildDictionary call allocates
// (the runtime.MemStats.TotalAlloc delta) at the given worker count.
func buildBytes(t *testing.T, m *timing.Model, pats []logicsim.PatternPair, suspects []circuit.ArcID, cfg DictConfig, workers int) uint64 {
	t.Helper()
	cfg.Workers = workers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := BuildDictionary(context.Background(), m, pats, suspects, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildDictionaryBytesIndependentOfWorkers asserts that a
// Monte-Carlo worker holds only its scratch and its flip events: every
// worker adds into one shared M count block and lists only the
// captures its samples flip, so four workers may allocate more than
// one only by three workers' scratch (engine, window, delay and size
// buffers) and event-list growth, never by a per-worker suspects ×
// outputs × patterns block. The fixture is case-shaped: every logic
// arc is a suspect and the patterns are two dozen, so one int32 block
// of that shape (314 KB) outweighs the three extra workers' scratch
// (~40 KB), as it does on a Table I case; half such a block is the
// slack.
func TestBuildDictionaryBytesIndependentOfWorkers(t *testing.T) {
	m, pats, suspects, cfg := caseShapedSetup(t)
	counts := uint64(len(suspects) * len(m.C.Outputs) * len(pats) * 4)
	b1 := buildBytes(t, m, pats, suspects, cfg, 1)
	b4 := buildBytes(t, m, pats, suspects, cfg, 4)
	if b4 > b1+counts/2 {
		t.Fatalf("4 workers allocate %d B, 1 worker %d B: %d B more, over half a %d B count block", b4, b1, b4-b1, counts)
	}
	t.Logf("%d suspects: %d B at 1 worker, %d B at 4 workers; count block %d B", len(suspects), b1, b4, counts)
}

// TestBuildDictionaryBytesBelowDenseE asserts that neither engine's
// build holds a dense suspects × outputs × patterns block: on the
// case-shaped fixture, where E differs from M in few cells, one build
// allocates less than one dense float64 E block, scratch, sparse E and
// signature classes included.
func TestBuildDictionaryBytesBelowDenseE(t *testing.T) {
	m, pats, suspects, cfg := caseShapedSetup(t)
	dense := uint64(len(suspects) * len(m.C.Outputs) * len(pats) * 8)
	for _, analytic := range []bool{false, true} {
		c := cfg
		if analytic {
			c.Engine = engine.NewAnalytic(m)
		}
		if got := buildBytes(t, m, pats, suspects, c, 1); got >= dense {
			t.Errorf("analytic=%v: one build allocates %d B, not below one %d B dense E block", analytic, got, dense)
		} else {
			t.Logf("analytic=%v: one build allocates %d B; dense E block %d B", analytic, got, dense)
		}
	}
}

// caseShapedSetup is the golden configuration shaped like a Table I
// case: every logic arc is a suspect and the patterns are two dozen.
func caseShapedSetup(t *testing.T) (*timing.Model, []logicsim.PatternPair, []circuit.ArcID, DictConfig) {
	t.Helper()
	m, pats, _, cfg := goldenDictSetup(t)
	cfg.Samples = 32
	r := rng.New(5)
	for len(pats) < 24 {
		v1 := make(logicsim.Vector, len(m.C.Inputs))
		v2 := make(logicsim.Vector, len(m.C.Inputs))
		for k := range v1 {
			v1[k] = r.Uint64()&1 == 1
			v2[k] = r.Uint64()&1 == 1
		}
		pats = append(pats, logicsim.PatternPair{V1: v1, V2: v2})
	}
	var suspects []circuit.ArcID
	for a := range m.C.Arcs {
		if m.C.Gates[m.C.Arcs[a].To].Type != circuit.Output {
			suspects = append(suspects, circuit.ArcID(a))
		}
	}
	return m, pats, suspects, cfg
}
