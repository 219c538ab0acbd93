package defect

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

func setup(t *testing.T) (*circuit.Circuit, *Injector) {
	t.Helper()
	c, err := synth.GenerateNamed("mini", 12)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	return c, NewInjector(c, m.MeanCellDelay(), DefaultParams())
}

func TestCandidateArcsExcludePorts(t *testing.T) {
	c, in := setup(t)
	cands := in.CandidateArcs()
	if len(cands) == 0 {
		t.Fatal("no candidate arcs")
	}
	nPort := 0
	for i := range c.Arcs {
		if c.Gates[c.Arcs[i].To].Type == circuit.Output {
			nPort++
		}
	}
	if len(cands) != len(c.Arcs)-nPort {
		t.Errorf("candidates = %d, want %d", len(cands), len(c.Arcs)-nPort)
	}
	for _, a := range cands {
		if c.Gates[c.Arcs[a].To].Type == circuit.Output {
			t.Errorf("port arc %d in candidates", a)
		}
	}
}

func TestSampleSizesWithinPaperRange(t *testing.T) {
	_, in := setup(t)
	r := rng.New(5)
	const N = 20000
	sizes := make([]float64, N)
	for i := range sizes {
		sizes[i] = in.SampleSize(r)
		if sizes[i] < 0 {
			t.Fatalf("negative defect size")
		}
	}
	mean := 0.0
	for _, s := range sizes {
		mean += s
	}
	mean /= N
	// Expected mean = 0.75 * cell delay (midpoint of [0.5, 1.0]).
	want := 0.75 * in.CellDelay
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean size = %v, want ~%v", mean, want)
	}
	// Essentially all mass within [0.5·cd·(1-3σfrac) .. 1.0·cd·(1+3σfrac)] ≈ [0.25, 1.5]·cd.
	lo, hi := 0.2*in.CellDelay, 1.6*in.CellDelay
	out := 0
	for _, s := range sizes {
		if s < lo || s > hi {
			out++
		}
	}
	if frac := float64(out) / N; frac > 0.001 {
		t.Errorf("%.3f%% of sizes outside the plausible band", frac*100)
	}
}

func TestSampleLocationUniform(t *testing.T) {
	_, in := setup(t)
	r := rng.New(6)
	counts := make(map[circuit.ArcID]int)
	const N = 50000
	for i := 0; i < N; i++ {
		counts[in.SampleLocation(r)]++
	}
	exp := float64(N) / float64(len(in.CandidateArcs()))
	for arc, n := range counts {
		if math.Abs(float64(n)-exp) > 6*math.Sqrt(exp) {
			t.Errorf("arc %d count %d deviates from uniform %v", arc, n, exp)
		}
	}
}

func TestAssumedSizeDist(t *testing.T) {
	_, in := setup(t)
	d := in.AssumedSizeDist()
	want := 0.75 * in.CellDelay
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Errorf("assumed mean = %v, want %v", d.Mean(), want)
	}
	// 3σ = 50% of mean.
	if sigma := math.Sqrt(d.Variance()); math.Abs(3*sigma-0.5*want) > 1e-9 {
		t.Errorf("3σ = %v, want %v", 3*sigma, 0.5*want)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	_, in := setup(t)
	a := in.Sample(rng.New(42))
	b := in.Sample(rng.New(42))
	if a != b {
		t.Errorf("same seed drew %v and %v", a, b)
	}
}

func TestDefectString(t *testing.T) {
	d := Defect{Arc: 7, Size: 1.25}
	if d.String() == "" {
		t.Errorf("empty String")
	}
}
