package benchfmt

import (
	"strings"
	"testing"

	"repro/internal/circuit"
)

const c17Bench = `
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)

OUTPUT(G22)
OUTPUT(G23)

G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17Bench, "c17", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != 5 || st.Outputs != 2 || st.Logic != 6 {
		t.Errorf("stats = %v", st)
	}
	g, ok := c.GateByName("G16")
	if !ok || g.Type != circuit.Nand {
		t.Errorf("G16 = %+v", g)
	}
}

func TestParseSequentialWithScan(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(out)
q = DFF(d)
d = NAND(a, q)
out = NOT(q)
`
	c, err := ParseString(src, "seq", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 { // a + pseudo-PI q
		t.Errorf("inputs = %d, want 2", len(c.Inputs))
	}
	if len(c.Outputs) != 2 { // out + pseudo-PO d
		t.Errorf("outputs = %d, want 2", len(c.Outputs))
	}
}

func TestParseSequentialWithoutScanFails(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(d)\nq = DFF(d)\nd = NAND(a, q)\n"
	if _, err := ParseString(src, "seq", false); err == nil {
		t.Errorf("cyclic sequential netlist parsed without scan conversion")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"G1 = FROB(a, b)",          // unknown function
		"INPUT(a, b)",              // too many args
		"WIBBLE(a)",                // unknown statement
		"G1 = NAND(a,)",            // empty arg
		"G1 = NAND",                // malformed call
		"INPUT()",                  // empty args
		"INPUT(a)\nINPUT(a)",       // duplicate
		"INPUT(a)\ng = NOT(a, a)",  // fanin count
		"OUTPUT(z)\nINPUT(a)",      // undeclared output
		"INPUT(a)\ng = NAND(a, w)", // undeclared ref (w), g unused but output missing anyway
	}
	for _, src := range cases {
		if _, err := ParseString(src, "bad", false); err == nil {
			t.Errorf("accepted bad source %q", src)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	src := "input(a)  # trailing comment\ninput(b)\noutput(o)\no = nand(a, b)\n"
	c, err := ParseString(src, "lc", false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Logic != 1 {
		t.Errorf("lower-case parse failed: %v", c.Stats())
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(c17Bench, "c17", false)
	if err != nil {
		t.Fatal(err)
	}
	text := writeBench(t, orig)
	back, err := ParseString(text, "c17", false)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	so, sb := orig.Stats(), back.Stats()
	if so != sb {
		t.Errorf("round-trip stats changed: %v -> %v", so, sb)
	}
	// Same gate names with same types and fanins.
	for i := range orig.Gates {
		g := &orig.Gates[i]
		if g.Type == circuit.Output {
			continue
		}
		h, ok := back.GateByName(g.Name)
		if !ok {
			t.Fatalf("gate %q lost in round trip", g.Name)
		}
		if h.Type != g.Type || len(h.Fanin) != len(g.Fanin) {
			t.Errorf("gate %q changed: %v/%d -> %v/%d", g.Name, g.Type, len(g.Fanin), h.Type, len(h.Fanin))
		}
		for k := range g.Fanin {
			if back.Gates[h.Fanin[k]].Name != orig.Gates[g.Fanin[k]].Name {
				t.Errorf("gate %q pin %d fanin changed", g.Name, k)
			}
		}
	}
}

func TestRoundTripScanConverted(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(out)\nq = DFF(d)\nd = NAND(a, q)\nout = NOT(q)\n"
	c, err := ParseString(src, "seq", true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(writeBench(t, c), "seq", false) // already combinational
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != back.Stats() {
		t.Errorf("scan round-trip stats changed: %v -> %v", c.Stats(), back.Stats())
	}
}

func TestWriteContainsHeaderAndSections(t *testing.T) {
	c, _ := ParseString(c17Bench, "c17", false)
	text := writeBench(t, c)
	for _, want := range []string{"INPUT(G1)", "OUTPUT(G22)", "G10 = NAND(G1, G3)"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// writeBench renders c in .bench format through Write.
func writeBench(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
