package eval

import (
	"context"
	"fmt"
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
// harness cases that have diagnostic patterns, drawing each case's
// timing lengths once for every quantile.
func GuardbandCurve(cfg Config, quantiles []float64) ([]GuardbandPoint, error) {
	p, err := newNamedPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.guardband(cfg.N, quantiles)
}

// guardband is the sweep over the first n cases that have diagnostic
// patterns: patterns are generated once per case, and so is the draw
// of its timing lengths, from which every quantile picks its clk; at
// each clk the die is observed with its defect and without it.
func (p *Pipeline) guardband(n int, quantiles []float64) ([]GuardbandPoint, error) {
	out := make([]GuardbandPoint, len(quantiles))
	cases := 0
	for i := 0; i < n; i++ {
		cs := p.NewCase(i)
		if p.Patterns(cs); len(cs.Pats) == 0 {
			continue
		}
		clks, err := p.clocks(context.Background(), cs, quantiles...)
		if err != nil {
			return nil, err
		}
		cases++
		for k, clk := range clks {
			cs.Clk = clk
			if p.Observe(cs); !cs.B.AnyFailure() {
				out[k].Escape++
			}
			good := *cs
			good.Truth = nil
			if p.Observe(&good); good.B.AnyFailure() {
				out[k].FalseAlarm++
			}
		}
	}
	if cases == 0 {
		return nil, fmt.Errorf("eval: no diagnosable sites for the guardband sweep")
	}
	for k, q := range quantiles {
		out[k].Quantile = q
		out[k].Escape /= float64(cases)
		out[k].FalseAlarm /= float64(cases)
	}
	return out, nil
}
