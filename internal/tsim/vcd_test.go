package tsim

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/logicsim"
	"repro/internal/timing"
)

func TestWriteVCD(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(o)\nb = BUF(a)\no = XOR(a, b)\n"
	c, err := benchfmt.ParseString(src, "glitch", false)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	inst := m.NominalInstance()
	res := Simulate(c, inst.Delays, logicsim.PatternPair{
		V1: logicsim.Vector{false}, V2: logicsim.Vector{true},
	}, Quiescent())

	var sb strings.Builder
	if err := WriteVCD(&sb, c, res, 1000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$enddefinitions $end",
		"$dumpvars",
		"$var wire 1 ! a $end",
		"#0", // the input switches at t = 0
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// Time markers are strictly increasing.
	lastT := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		tick, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			t.Fatalf("bad time line %q", line)
		}
		if tick <= lastT {
			t.Errorf("non-increasing time %d after %d", tick, lastT)
		}
		lastT = tick
	}
	// The glitch produces at least three change sections (t=0 launch,
	// rise at o, fall at o).
	if n := strings.Count(out, "#"); n < 3 {
		t.Errorf("only %d time sections", n)
	}
}

func TestWriteVCDValidation(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(o)\no = NOT(a)\n"
	c, _ := benchfmt.ParseString(src, "x", false)
	m := timing.NewModel(c, timing.DefaultParams())
	var sb strings.Builder
	if err := WriteVCD(&sb, c, &Result{}, 1000); err == nil { // no run, no waveforms
		t.Errorf("missing waveforms accepted")
	}
	res := Simulate(c, m.NominalInstance().Delays, logicsim.PatternPair{
		V1: logicsim.Vector{false}, V2: logicsim.Vector{true},
	}, Quiescent())
	if err := WriteVCD(&sb, c, res, 0); err == nil {
		t.Errorf("zero timescale accepted")
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at %d", id, i)
		}
		seen[id] = true
		for _, r := range id {
			if r < 33 || r > 126 {
				t.Fatalf("non-printable id byte %d", r)
			}
		}
	}
}
