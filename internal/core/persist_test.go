package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/rng"
)

func buildSmallDict(t *testing.T) (*Dictionary, *testBench) {
	t.Helper()
	tb := newBench(t, "mini", 3)
	suspects := append(tb.inj.CandidateArcs()[:20], tb.site)
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(48))
	if err != nil {
		t.Fatal(err)
	}
	return d, tb
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, tb := buildSmallDict(t)
	cd := Compress(d)
	var buf bytes.Buffer
	if err := cd.Save(&buf, len(tb.c.Inputs)); err != nil {
		t.Fatal(err)
	}
	back, nIn, err := LoadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nIn != len(tb.c.Inputs) {
		t.Errorf("input count %d, want %d", nIn, len(tb.c.Inputs))
	}
	if back.Clk != cd.Clk || len(back.Suspects) != len(cd.Suspects) {
		t.Errorf("header fields changed")
	}
	for i := range cd.Suspects {
		if back.Suspects[i] != cd.Suspects[i] {
			t.Fatalf("suspect %d changed", i)
		}
	}
	if len(back.Patterns) != len(cd.Patterns) {
		t.Fatalf("pattern count changed")
	}
	for i := range cd.Patterns {
		if back.Patterns[i].String() != cd.Patterns[i].String() {
			t.Errorf("pattern %d changed: %s -> %s", i, cd.Patterns[i], back.Patterns[i])
		}
	}
	// Diagnosing with the loaded dictionary must match the original.
	r := rng.New(5)
	inst := tb.m.SampleInstance(r)
	b := SimulateBehavior(tb.c, inst.Delays, tb.pats, tb.site, 3*tb.inj.CellDelay, tb.clk)
	if !b.AnyFailure() {
		t.Skip("defect escaped")
	}
	for _, m := range Methods {
		orig := cd.Diagnose(b, m, 0)
		loaded := back.Diagnose(b, m, 0)
		for i := range orig {
			if orig[i] != loaded[i] {
				t.Fatalf("%v: ranking diverged at %d", m, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                     // empty
		"NOPE",                 // bad magic
		"DDD1",                 // truncated header
		"DDD1\x02\x00\x00\x00", // future version
	}
	for _, src := range cases {
		if _, _, err := LoadCompressed(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestLoadRejectsTruncatedBody(t *testing.T) {
	d, tb := buildSmallDict(t)
	cd := Compress(d)
	var buf bytes.Buffer
	if err := cd.Save(&buf, len(tb.c.Inputs)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 12, 20, len(full) / 2, len(full) - 1} {
		if _, _, err := LoadCompressed(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("accepted %d-byte truncation of %d", cut, len(full))
		}
	}
}

func TestSaveRejectsWidthMismatch(t *testing.T) {
	d, tb := buildSmallDict(t)
	cd := Compress(d)
	var buf bytes.Buffer
	if err := cd.Save(&buf, len(tb.c.Inputs)+3); err == nil {
		t.Errorf("mismatched input width accepted")
	}
}

func TestBitPackingOddWidths(t *testing.T) {
	// Widths that are not byte multiples round-trip exactly.
	d, tb := buildSmallDict(t)
	cd := Compress(d)
	n := len(tb.c.Inputs) // mini has 6 inputs: odd width by design
	if n%8 == 0 {
		t.Skip("width happens to be a byte multiple")
	}
	var buf bytes.Buffer
	if err := cd.Save(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, _, err := LoadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cd.Patterns {
		if back.Patterns[i].String() != cd.Patterns[i].String() {
			t.Errorf("odd-width pattern %d corrupted", i)
		}
	}
}
