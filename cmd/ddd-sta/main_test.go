package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro"
	tengine "repro/internal/timing/engine"
)

// mcLabel matches moments labelled as Monte-Carlo ones.
var mcLabel = regexp.MustCompile(`(?i)\bmc mean=([0-9.]+) σ=([0-9.]+)`)

// TestComparisonLine pins the report's engine comparison on mini: no
// line may present the analytic engine's moments as Monte-Carlo ones,
// and under -engine mc the comparison line carries the analytic
// engine's circuit-delay mean and σ.
func TestComparisonLine(t *testing.T) {
	c, err := repro.GenerateCircuit("mini", 2003)
	if err != nil {
		t.Fatal(err)
	}
	an, err := tengine.NewAnalytic(repro.NewTimingModel(c, repro.DefaultTimingParams())).STA(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	anMoments := fmt.Sprintf("mean=%.3f σ=%.3f", an.CircuitDelay.Mean(), an.CircuitDelay.Std())

	for _, eng := range []string{"mc", "analytic"} {
		fs := flag.NewFlagSet("ddd-sta", flag.ContinueOnError)
		o := newFlags(fs)
		if err := fs.Parse([]string{"-profile", "mini", "-engine", eng, "-samples", "500"}); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		compared := false
		for _, line := range strings.Split(out.String(), "\n") {
			for _, sm := range mcLabel.FindAllStringSubmatch(line, -1) {
				if eng == "analytic" || fmt.Sprintf("mean=%s σ=%s", sm[1], sm[2]) == anMoments {
					t.Errorf("%s: line labels the analytic engine's numbers as MC: %q", eng, line)
				}
			}
			if strings.HasPrefix(line, "analytic engine: "+anMoments+" ") {
				compared = true
			}
		}
		if want := eng == "mc"; compared != want {
			t.Errorf("%s: analytic comparison line present = %v, want %v\n%s", eng, compared, want, out.String())
		}
	}
}
