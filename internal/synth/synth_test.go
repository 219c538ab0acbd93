package synth

import (
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
)

func TestGenerateMini(t *testing.T) {
	c, err := GenerateNamed("mini", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != 6 { // no DFFs in mini
		t.Errorf("inputs = %d, want 6", st.Inputs)
	}
	if st.Outputs != 4 {
		t.Errorf("outputs = %d, want 4", st.Outputs)
	}
	if st.Logic != 40 {
		t.Errorf("logic = %d, want 40", st.Logic)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateNamed("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNamed("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	if benchText(t, a) != benchText(t, b) {
		t.Errorf("same seed produced different circuits")
	}
	c, err := GenerateNamed("small", 8)
	if err != nil {
		t.Fatal(err)
	}
	if benchText(t, a) == benchText(t, c) {
		t.Errorf("different seeds produced identical circuits")
	}
}

func TestScanConversionCounts(t *testing.T) {
	p, _ := ProfileByName("small")
	c, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != p.PI+p.DFF {
		t.Errorf("scan inputs = %d, want %d", st.Inputs, p.PI+p.DFF)
	}
	if st.Outputs != p.PO+p.DFF {
		t.Errorf("scan outputs = %d, want %d", st.Outputs, p.PO+p.DFF)
	}
}

func TestDepthNearTarget(t *testing.T) {
	for _, name := range []string{"mini", "small", "medium"} {
		p, _ := ProfileByName(name)
		c, err := Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Depth() - 1 // port gates add one level
		if d < p.Depth-2 || d > p.Depth+4 {
			t.Errorf("%s depth = %d, target %d", name, d, p.Depth)
		}
	}
}

func TestAllTableICircuitsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits in -short mode")
	}
	for _, p := range Profiles {
		if p.Name[0] != 's' {
			continue
		}
		c, err := Generate(p, 2026)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := c.Stats()
		if st.Logic != p.Gates {
			t.Errorf("%s logic = %d, want %d", p.Name, st.Logic, p.Gates)
		}
		if st.Inputs != p.PI+p.DFF || st.Outputs != p.PO+p.DFF {
			t.Errorf("%s IO = %d/%d, want %d/%d", p.Name, st.Inputs, st.Outputs, p.PI+p.DFF, p.PO+p.DFF)
		}
	}
}

func TestISCAS85CircuitsGenerate(t *testing.T) {
	for _, name := range []string{"c432", "c499", "c880"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		c, err := Generate(p, 85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := c.Stats()
		if st.Logic != p.Gates || st.Inputs != p.PI || st.Outputs != p.PO {
			t.Errorf("%s: stats %v vs profile %+v", name, st, p)
		}
	}
	if !testing.Short() {
		for _, name := range []string{"c1908", "c2670", "c3540", "c5315", "c6288", "c7552", "c1355"} {
			c, err := GenerateNamed(name, 85)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := c.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestLittleDeadLogic(t *testing.T) {
	c, err := GenerateNamed("medium", 5)
	if err != nil {
		t.Fatal(err)
	}
	dangling := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == circuit.Input || g.Type == circuit.Output {
			continue
		}
		if len(g.Fanout) == 0 {
			dangling++
		}
	}
	if frac := float64(dangling) / float64(c.Stats().Logic); frac > 0.02 {
		t.Errorf("dead logic fraction %.3f (%d gates), want <= 2%%", frac, dangling)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("s1196"); !ok {
		t.Errorf("s1196 missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Errorf("bogus profile found")
	}
	if _, err := GenerateNamed("nope", 1); err == nil {
		t.Errorf("unknown profile generated")
	}
}

func TestInfeasibleProfile(t *testing.T) {
	if _, err := Generate(Profile{Name: "x", PI: 0, PO: 1, Gates: 5}, 1); err == nil {
		t.Errorf("zero-PI profile accepted")
	}
	if _, err := Generate(Profile{Name: "x", PI: 1, PO: 10, Gates: 5}, 1); err == nil {
		t.Errorf("PO > gates profile accepted")
	}
}

func TestRoundTripThroughBench(t *testing.T) {
	c, err := GenerateNamed("small", 9)
	if err != nil {
		t.Fatal(err)
	}
	text := benchText(t, c)
	back, err := benchfmt.ParseString(text, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != back.Stats() {
		t.Errorf("bench round trip changed stats: %v -> %v", c.Stats(), back.Stats())
	}
}

// benchText renders c in .bench format.
func benchText(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := benchfmt.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
