package eval

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// WriteReport renders a CircuitResult as a human-readable experiment
// report: configuration, aggregate rates, the success-vs-K table for
// every method, and an optional per-case breakdown.
func WriteReport(w io.Writer, r *CircuitResult, perCase bool) error {
	var sb strings.Builder
	cfg := r.Config
	fmt.Fprintf(&sb, "circuit %s (%s)\n", cfg.Circuit, r.Stats)
	fmt.Fprintf(&sb, "N=%d patterns<=%d dictSamples=%d clkQuantile=%.2f seed=%d\n",
		cfg.N, cfg.MaxPatterns, cfg.DictSamples, cfg.ClkQuantile, cfg.Seed)
	fmt.Fprintf(&sb, "escape rate %.0f%%, mean suspects %s, mean auto-K %s (success within: %s%%)\n\n",
		100*r.EscapeRate(), fmtMeas(r.MeanSuspects(), 0), fmtMeas(r.MeanAutoK(), 1), fmtMeas(100*r.AutoKSuccessRate(), 0))

	ks := Table1KValues(cfg.Circuit)
	fmt.Fprintf(&sb, "%-12s", "method")
	for _, k := range ks {
		fmt.Fprintf(&sb, " %7s", fmt.Sprintf("K=%d", k))
	}
	sb.WriteByte('\n')
	for _, m := range core.Methods {
		fmt.Fprintf(&sb, "%-12s", m.String())
		for _, k := range ks {
			fmt.Fprintf(&sb, " %6.0f%%", 100*r.SuccessRate(m, k))
		}
		sb.WriteByte('\n')
	}

	if perCase {
		fmt.Fprintf(&sb, "\n%4s %8s %5s %6s %7s %6s %6s %6s %6s\n",
			"case", "defect", "pats", "susp", "truthIn", "I", "II", "III", "rev")
		for _, cs := range r.Cases {
			if cs.Escaped {
				fmt.Fprintf(&sb, "%4d %8d %5d %6s %7s escaped\n", cs.Instance, cs.Defect.Arc, cs.Patterns, "-", "-")
				continue
			}
			fmt.Fprintf(&sb, "%4d %8d %5d %6d %7v %6d %6d %6d %6d\n",
				cs.Instance, cs.Defect.Arc, cs.Patterns, cs.Suspects, cs.TruthInSuspects,
				cs.Rank[core.MethodI], cs.Rank[core.MethodII], cs.Rank[core.MethodIII], cs.Rank[core.AlgRev])
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteTable1CSV emits measured Table I rows as CSV with the paper's
// values alongside, for plotting.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	paper := make(map[string]Table1Row)
	for _, row := range PaperTable1 {
		paper[fmt.Sprintf("%s/%d", row.Circuit, row.K)] = row
	}
	var sb strings.Builder
	sb.WriteString("circuit,K,I_meas,II_meas,rev_meas,I_paper,II_paper,rev_paper\n")
	for _, row := range rows {
		p, ok := paper[fmt.Sprintf("%s/%d", row.Circuit, row.K)]
		if ok {
			fmt.Fprintf(&sb, "%s,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
				row.Circuit, row.K, row.I, row.II, row.Rev, p.I, p.II, p.Rev)
		} else {
			fmt.Fprintf(&sb, "%s,%d,%.0f,%.0f,%.0f,,,\n", row.Circuit, row.K, row.I, row.II, row.Rev)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
