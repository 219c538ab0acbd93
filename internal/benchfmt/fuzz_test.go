package benchfmt

import (
	"strings"
	"testing"
)

// FuzzParse checks that the .bench parser never panics and that every
// successfully parsed circuit passes structural validation and
// round-trips through the writer. The seed corpus covers the grammar;
// `go test` runs the seeds, `go test -fuzz=FuzzParse` explores.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"INPUT(a)\nOUTPUT(o)\no = NOT(a)\n",
		"# comment only\n",
		"INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = NAND(a, b)\n",
		"input(a)\noutput(q)\nq = DFF(d)\nd = nor(a, q)\n",
		"INPUT(a)\nOUTPUT(o)\no = XOR(a, a)\n",
		"INPUT(x)\nOUTPUT(x)\n",
		"garbage line",
		"G1 = AND(",
		"INPUT()",
		"OUTPUT(undeclared)\n",
		"INPUT(a)\nOUTPUT(o)\no = BUFF(a)\n",
		strings.Repeat("INPUT(a)\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz", true)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.Check(); err != nil {
			t.Fatalf("parsed circuit fails validation: %v\nsource:\n%s", err, src)
		}
		// Writer output must re-parse to the same shape.
		text := writeBench(t, c)
		back, err := ParseString(text, "fuzz", false)
		if err != nil {
			t.Fatalf("round trip failed: %v\nwritten:\n%s", err, text)
		}
		if c.Stats() != back.Stats() {
			t.Fatalf("round trip changed stats: %v -> %v", c.Stats(), back.Stats())
		}
	})
}
