package core

import (
	"context"
	"testing"
)

// countBuildAllocs reports total heap allocations of one BuildDictionary
// call at the given sample count, on the golden configuration with a
// single worker (so the count is not diluted across goroutines —
// testing.AllocsPerRun only observes the calling goroutine).
func countBuildAllocs(t *testing.T, samples int) float64 {
	t.Helper()
	m, pats, suspects, cfg := goldenDictSetup(t)
	cfg.Workers = 1
	cfg.Samples = samples
	return testing.AllocsPerRun(2, func() {
		if _, err := BuildDictionary(context.Background(), m, pats, suspects, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildDictionaryAllocBudget asserts the scratch-reuse contract of
// the build loop: steady-state allocations are independent of the
// Monte-Carlo sample count. Every per-sample buffer (instance delays,
// engine worklists, waveform arenas, failure accumulators) lives in
// per-worker scratch allocated once up front, so quadrupling Samples
// must not grow allocations beyond run-to-run noise. A violation here
// is exactly the regression class the hotalloc analyzer and the
// tracked allocs/op in BENCH_core.json exist to catch.
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
	lo := countBuildAllocs(t, 64)
	hi := countBuildAllocs(t, 256)
	if hi > lo+64 {
		t.Fatalf("allocations grow with sample count: %0.f allocs at 64 samples, %0.f at 256", lo, hi)
	}
	t.Logf("allocs: %.0f at 64 samples, %.0f at 256 samples", lo, hi)
}
