package main

import (
	"errors"
	"flag"
	"io"
	"strconv"
	"testing"

	"repro"
	"repro/internal/eval"
)

// TestDiagnoseMatchesHarnessCase pins ddd-diagnose to the Table I
// harness: with default flags, -case i under either engine must rank
// the injected defect exactly where harness case i does.
func TestDiagnoseMatchesHarnessCase(t *testing.T) {
	const n = 3
	for _, eng := range []string{"mc", "analytic"} {
		cfg := eval.DefaultConfig("small")
		cfg.N = n
		cfg.Engine = eng
		res, err := eval.RunCircuit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fs := flag.NewFlagSet("ddd-diagnose", flag.ContinueOnError)
			o := newFlags(fs)
			if err := fs.Parse([]string{"-profile", "small", "-case", strconv.Itoa(i), "-engine", eng}); err != nil {
				t.Fatal(err)
			}
			got, err := run(io.Discard, o)
			want := res.Cases[i]
			if want.Escaped {
				if !errors.Is(err, errEscaped) {
					t.Errorf("%s case %d: harness escaped, ddd-diagnose returned %v", eng, i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s case %d: %v", eng, i, err)
			}
			for _, m := range repro.Methods {
				if got[m] != want.Rank[m] {
					t.Errorf("%s case %d %v: ddd-diagnose rank %d, harness rank %d", eng, i, m, got[m], want.Rank[m])
				}
			}
		}
	}
}
