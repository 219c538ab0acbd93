package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpKeepsStepOrder dumps a defect run at one tick per delay unit,
// where some gates step twice within one tick, and checks that every
// value-change line changes its gate's value: a gate's steps written
// out of order would repeat a value and leave a viewer at the wrong one.
func TestDumpKeepsStepOrder(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.vcd")
	if err := run("small", 2003, 3, 40, 1.0, out, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	value := map[string]byte{}
	inDump, sameTick := false, 0
	seen := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "$dumpvars":
			inDump = true
		case line == "$end":
			inDump = false
		case strings.HasPrefix(line, "#"):
			seen = map[string]bool{}
		case len(line) >= 2 && (line[0] == '0' || line[0] == '1'):
			id := line[1:]
			if !inDump && value[id] == line[0] {
				t.Fatalf("change line %q repeats its gate's value", line)
			}
			if seen[id] {
				sameTick++
			}
			seen[id] = true
			value[id] = line[0]
		}
	}
	if sameTick == 0 {
		t.Fatal("no gate steps twice within one tick: the dump does not exercise step order")
	}
}
