package timing_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/timing/engine"
)

// TestClarkSTAAgainstMC holds the closed-form engine (Clark moment
// matching) to the Monte-Carlo engine on a synthetic circuit: the
// circuit-delay mean within 10 %, σ within a factor of 3.
func TestClarkSTAAgainstMC(t *testing.T) {
	c, err := synth.GenerateNamed("small", 6)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	ctx := context.Background()
	an, err := engine.NewAnalytic(m).STA(ctx, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := timing.NewMC(m).STA(ctx, 3000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	anMean, mcMean := an.CircuitDelay.Mean(), mc.CircuitDelay.Mean()
	if rel := math.Abs(anMean-mcMean) / mcMean; rel > 0.10 {
		t.Errorf("analytic mean off by %.1f%% (analytic %v, mc %v)", rel*100, anMean, mcMean)
	}
	anStd, mcStd := an.CircuitDelay.Std(), mc.CircuitDelay.Std()
	if anStd < mcStd/3 || anStd > mcStd*3 {
		t.Errorf("analytic sigma %v vs MC %v", anStd, mcStd)
	}
}
