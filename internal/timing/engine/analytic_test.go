package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/timing"
)

// Property tests for the analytic engine: on hand-built DAG shapes
// that isolate each approximation — a pure chain (no max anywhere, the
// canonical form is exact), a diamond (one reconvergent max with
// unequal depths), and a doubly reconvergent cone (stacked correlated
// maxes) — the closed forms must track a high-sample Monte-Carlo
// reference within documented tolerances. MC sampling error at 200k
// samples is ~0.2 % of σ, far below every bound checked here.

const chainBench = `
INPUT(a)
OUTPUT(z)
n1 = NOT(a)
n2 = NOT(n1)
n3 = NOT(n2)
n4 = NOT(n3)
z = NOT(n4)
`

const diamondBench = `
INPUT(a)
OUTPUT(z)
b = NOT(a)
c = NOT(a)
d = NOT(b)
z = AND(d, c)
`

const coneBench = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
x = AND(a, b)
y = OR(b, c)
u = NAND(x, y)
v = NOR(x, y)
z = AND(u, v)
`

const mcRefSamples = 200_000

func TestAnalyticSTAProperties(t *testing.T) {
	cases := []struct {
		name, src string
		// Tolerances on the circuit-delay moments, relative. The chain
		// has no max, so only MC noise separates the two engines; the
		// reconvergent shapes inherit the documented Clark and
		// local-independence errors.
		meanTol, sigmaTol float64
	}{
		{"chain", chainBench, 0.005, 0.02},
		{"diamond", diamondBench, 0.01, 0.15},
		{"cone", coneBench, 0.02, 0.25},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := benchModel(t, tc.src, tc.name)
			an, err := NewAnalytic(m).STA(ctx, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := timing.NewMC(m).STA(ctx, mcRefSamples, 99, 0)
			if err != nil {
				t.Fatal(err)
			}
			meanMC, meanAN := mc.CircuitDelay.Mean(), an.CircuitDelay.Mean()
			sigMC, sigAN := mc.CircuitDelay.Std(), an.CircuitDelay.Std()
			if e := math.Abs(meanAN-meanMC) / meanMC; e > tc.meanTol {
				t.Errorf("delay mean rel err %.4f > %.4f (mc %.5f an %.5f)", e, tc.meanTol, meanMC, meanAN)
			}
			if e := math.Abs(sigAN-sigMC) / sigMC; e > tc.sigmaTol {
				t.Errorf("delay sigma rel err %.4f > %.4f (mc %.5f an %.5f)", e, tc.sigmaTol, sigMC, sigAN)
			}
			// Critical probability at the MC q90: the exceedance curves
			// must agree where clk selection reads them.
			clk := mc.CircuitDelay.Quantile(0.9)
			if d := math.Abs(an.CriticalProb(clk) - mc.CriticalProb(clk)); d > 0.05 {
				t.Errorf("critical prob at q90 differs by %.4f (mc %.4f an %.4f)",
					d, mc.CriticalProb(clk), an.CriticalProb(clk))
			}
		})
	}
}

func TestAnalyticCriticalityProperties(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, src string
		tol       float64
	}{
		{"chain", chainBench, 1e-12},
		{"diamond", diamondBench, 0.05},
		{"cone", coneBench, 0.08},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := benchModel(t, tc.src, tc.name)
			an, err := NewAnalytic(m).Criticality(ctx, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := timing.NewMC(m).Criticality(ctx, mcRefSamples, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			for a := range mc.Prob {
				if d := math.Abs(an.Prob[a] - mc.Prob[a]); d > tc.tol {
					t.Errorf("arc %d criticality differs by %.4f (mc %.4f an %.4f)",
						a, d, mc.Prob[a], an.Prob[a])
				}
			}
		})
	}
}

// TestAnalyticTimingLengthExact: a path's timing length involves no
// max, so the analytic Normal is the model's exact marginal — mean and
// σ must match MC at its sampling error.
func TestAnalyticTimingLengthExact(t *testing.T) {
	ctx := context.Background()
	m := synthModel(t, "small", 7)
	arcs := longestStructuralPath(m)
	an, err := NewAnalytic(m).TimingLength(ctx, arcs, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := timing.NewMC(m).TimingLength(ctx, arcs, mcRefSamples, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(an.Mean()-mc.Mean()) / mc.Mean(); e > 0.002 {
		t.Errorf("timing length mean rel err %.5f (mc %.5f an %.5f)", e, mc.Mean(), an.Mean())
	}
	if e := math.Abs(an.Std()-mc.Std()) / mc.Std(); e > 0.02 {
		t.Errorf("timing length sigma rel err %.5f (mc %.5f an %.5f)", e, mc.Std(), an.Std())
	}
}

// TestAnalyticHygiene: closed forms must stay finite on every shape,
// including degenerate single-gate circuits.
func TestAnalyticHygiene(t *testing.T) {
	ctx := context.Background()
	for _, src := range []string{
		chainBench, diamondBench, coneBench,
		"INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n",
	} {
		m := benchModel(t, src, "hygiene")
		eng := NewAnalytic(m)
		sta, err := eng.STA(ctx, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(sta.CircuitDelay.Mean()) || math.IsInf(sta.CircuitDelay.Mean(), 0) ||
			math.IsNaN(sta.CircuitDelay.Std()) || sta.CircuitDelay.Std() < 0 {
			t.Fatalf("non-finite circuit delay %v", sta.CircuitDelay)
		}
		cr, err := eng.Criticality(ctx, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for a, p := range cr.Prob {
			if math.IsNaN(p) || p < -1e-9 || p > 1+1e-9 {
				t.Fatalf("criticality[%d] = %v out of [0,1]", a, p)
			}
		}
	}
}
