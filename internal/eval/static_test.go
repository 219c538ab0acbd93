package eval

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/timing"
)

func TestGlobalPatternSet(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	tests := GlobalPatternSet(c, m, 10, 7)
	if len(tests) == 0 {
		t.Fatal("no global patterns")
	}
	if len(tests) > 10 {
		t.Fatalf("cap exceeded: %d", len(tests))
	}
	seen := map[string]bool{}
	for i, tc := range tests {
		if err := atpg.CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
			t.Errorf("test %d invalid: %v", i, err)
		}
		k := tc.Pair.String()
		if seen[k] {
			t.Errorf("duplicate pattern %d", i)
		}
		seen[k] = true
	}
}

func TestBuildStaticAndRunPrecomputed(t *testing.T) {
	cfg := fastConfig("small", 6)
	sd, err := BuildStatic(cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Dict.Suspects) == 0 || len(sd.Dict.Suspects) > 80 {
		t.Fatalf("universe size %d", len(sd.Dict.Suspects))
	}
	if sd.Clk <= 0 {
		t.Errorf("clk = %v", sd.Clk)
	}
	res, err := RunPrecomputed(cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != cfg.N {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	universe := len(sd.Dict.Suspects)
	for _, cs := range res.Cases {
		if cs.Suspects != universe || cs.Patterns != len(sd.Patterns) || cs.Clk != sd.Clk {
			t.Errorf("case %d: suspects %d patterns %d clk %v, want the dictionary's %d, %d, %v",
				cs.Instance, cs.Suspects, cs.Patterns, cs.Clk, universe, len(sd.Patterns), sd.Clk)
		}
		for m, rank := range cs.Rank {
			if rank < 0 || rank > universe {
				t.Errorf("case %d method %v rank %d", cs.Instance, m, rank)
			}
		}
	}
	// Success rate is a valid probability and monotone in K.
	prev := 0.0
	for k := 1; k <= 10; k++ {
		s := res.SuccessRate(core.AlgRev, k)
		if s < prev || s > 1 {
			t.Errorf("success rate not monotone at K=%d: %v", k, s)
		}
		prev = s
	}
}
