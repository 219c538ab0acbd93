package eval

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// The guardband curve quantifies the cut-off-period dial discussed in
// DESIGN.md §6: lowering clk (shmooing the tester faster) exposes more
// defects but also fails more defect-free dies. For a batch of sites
// with targeted patterns, it sweeps the clk quantile and measures
//
//   - escape rate: defective dies with an all-pass behavior matrix;
//   - false-alarm rate: defect-free dies with at least one failure.
//
// The diagnosis framework tolerates false alarms (M_crt models them),
// so the operating point is a sensitivity choice, not a correctness
// one — the curve shows what each choice buys.

// GuardbandPoint is one sweep sample.
type GuardbandPoint struct {
	Quantile   float64
	Escape     float64 // P(no failure | defect present)
	FalseAlarm float64 // P(some failure | defect free)
}

// GuardbandCurve sweeps the clk quantile over the first cfg.N
// harness cases that have diagnostic patterns: patterns are generated
// once per case, then every quantile re-picks clk and observes the die
// with its defect and without it.
func GuardbandCurve(cfg Config, quantiles []float64) ([]GuardbandPoint, error) {
	p, err := newNamedPipeline(cfg)
	if err != nil {
		return nil, err
	}
	var cases []*Case
	for i := 0; i < cfg.N; i++ {
		cs := p.NewCase(i)
		if p.Patterns(cs); len(cs.Pats) > 0 {
			cases = append(cases, cs)
		}
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("eval: no diagnosable sites for the guardband sweep")
	}

	var out []GuardbandPoint
	for _, q := range quantiles {
		pt := GuardbandPoint{Quantile: q}
		for _, cs := range cases {
			if err := p.Clock(context.Background(), cs, q); err != nil {
				return nil, err
			}
			if p.Observe(cs); !cs.B.AnyFailure() {
				pt.Escape++
			}
			good := *cs
			good.Truth = nil
			if p.Observe(&good); good.B.AnyFailure() {
				pt.FalseAlarm++
			}
		}
		pt.Escape /= float64(len(cases))
		pt.FalseAlarm /= float64(len(cases))
		out = append(out, pt)
	}
	return out, nil
}

// WriteGuardbandCSV emits the sweep as CSV.
func WriteGuardbandCSV(w io.Writer, pts []GuardbandPoint) error {
	var sb strings.Builder
	sb.WriteString("quantile,escape,false_alarm\n")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%.3f,%.4f,%.4f\n", p.Quantile, p.Escape, p.FalseAlarm)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
