package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/timing"
)

// TestGlobalPatternSet checks that the set fills its budget with
// valid, distinct tests. On small@2003 (285 arcs, stride 177, gcd 3) a
// plain stride walk keeps revisiting the 95 sites of its first cycle
// and yields 158 of 200 tests; sweeping every residue class fills the
// budget.
func TestGlobalPatternSet(t *testing.T) {
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	for _, budget := range []int{10, 200} {
		tests := GlobalPatternSet(c, m, budget, 7)
		if len(tests) != budget {
			t.Fatalf("budget %d: %d tests", budget, len(tests))
		}
		seen := map[string]bool{}
		for i, tc := range tests {
			if err := atpg.CheckPathTest(c, tc.Path, tc.Pair, tc.Robust); err != nil {
				t.Errorf("budget %d: test %d invalid: %v", budget, i, err)
			}
			k := tc.Pair.String()
			if seen[k] {
				t.Errorf("budget %d: duplicate pattern %d", budget, i)
			}
			seen[k] = true
		}
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

// TestSweepOrder pins GlobalPatternSet's site order on two strides
// that share a factor with the arc count (small@2003: 285 arcs, gcd 3;
// s1196@2003: 1,265 arcs, gcd 11): the order visits every arc once,
// and up to the walk's first repeat it is the plain stride walk.
func TestSweepOrder(t *testing.T) {
	for _, tc := range []struct{ n, stride int }{{285, 177}, {1265, 781}} {
		order := sweepOrder(tc.n, tc.stride)
		if len(order) != tc.n {
			t.Fatalf("n=%d: %d sites, want %d", tc.n, len(order), tc.n)
		}
		seen := make([]bool, tc.n)
		for _, s := range order {
			if s < 0 || s >= tc.n || seen[s] {
				t.Fatalf("n=%d: site %d out of range or repeated", tc.n, s)
			}
			seen[s] = true
		}
		// The plain walk, cut before its first repeat.
		var walk []int
		visited := make(map[int]bool)
		for site := tc.stride % tc.n; !visited[site]; site = (site + tc.stride) % tc.n {
			visited[site] = true
			walk = append(walk, site)
		}
		if len(walk) == tc.n {
			t.Fatalf("n=%d stride=%d: coprime, the case does not exercise the class step", tc.n, tc.stride)
		}
		for i, s := range walk {
			if order[i] != s {
				t.Fatalf("n=%d: site %d of the order is %d, the stride walk's is %d", tc.n, i, order[i], s)
			}
		}
	}
}

// TestStaticDictionaryGolden pins the stored bytes of the four serving
// dictionaries, built as ddd-e2e -regen-dicts builds them (analytic
// engine, 16 patterns, 96 samples, 400 suspects at most) and saved in
// the binary dictionary format, to their SHA-256s.
func TestStaticDictionaryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four static dictionaries")
	}
	want := map[string]string{
		"s1196": "13999fe934b9ce81389af87025114d0535670a39a82127c82b992d4de6a928f4",
		"s1238": "ad3b44b8c9f3b9520b4b8e95761550215fa8ffa3c3c75e534913bac5867aaaae",
		"s1423": "26b054eb1532621a0de7eb03e3048668499810f3335ed6402a621f41cd0ddf3c",
		"s1488": "003920eb49acd97e33370a55090e5e59a9ae372ef0165bb9604016d9023788e2",
	}
	for _, id := range []string{"s1196", "s1238", "s1423", "s1488"} {
		cfg := DefaultConfig(id)
		cfg.MaxPatterns = 16
		cfg.DictSamples = 96
		cfg.Engine = "analytic"
		sd, err := BuildStatic(cfg, 400)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := core.Compress(sd.Dict).Save(&buf, len(sd.C.Inputs)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s: stored dictionary SHA-256 %s, want %s", id, got, want[id])
		}
	}
}
