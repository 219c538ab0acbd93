package eval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// fmtMeas renders a measured value with the given precision, printing
// NaN — the harness's "no data" marker (empty denominator) — as "-",
// the same placeholder used for K values the paper does not report.
func fmtMeas(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Table1Row is one (circuit, K) cell group of Table I: the success
// rates (percent) of Alg_sim Method I, Method II and Alg_rev.
type Table1Row struct {
	Circuit string
	K       int
	I       float64 // Alg_sim Method I (%)
	II      float64 // Alg_sim Method II (%)
	Rev     float64 // Alg_rev (%)
}

// PaperTable1 reproduces the published Table I values for comparison
// in EXPERIMENTS.md and in the harness output.
var PaperTable1 = []Table1Row{
	{"s1196", 1, 0, 5, 10}, {"s1196", 3, 0, 30, 30}, {"s1196", 7, 5, 35, 60},
	{"s1238", 1, 0, 15, 20}, {"s1238", 2, 5, 25, 25}, {"s1238", 7, 25, 65, 65},
	{"s1423", 1, 10, 15, 10}, {"s1423", 2, 30, 35, 35}, {"s1423", 9, 50, 60, 65},
	{"s1488", 1, 5, 5, 5}, {"s1488", 3, 35, 30, 30}, {"s1488", 5, 55, 60, 65},
	{"s5378", 1, 15, 25, 25}, {"s5378", 2, 30, 40, 45}, {"s5378", 7, 80, 85, 90},
	{"s9234", 2, 25, 30, 30}, {"s9234", 5, 40, 50, 50}, {"s9234", 11, 60, 75, 70},
	{"s13207", 1, 10, 20, 20}, {"s13207", 5, 30, 50, 60}, {"s13207", 13, 70, 70, 80},
	{"s15850", 1, 10, 10, 10}, {"s15850", 2, 30, 30, 30}, {"s15850", 9, 40, 35, 45},
}

// Table1KValues returns the K values Table I reports for a circuit.
func Table1KValues(circuitName string) []int {
	seen := []int{}
	for _, row := range PaperTable1 {
		if row.Circuit == circuitName {
			seen = append(seen, row.K)
		}
	}
	if len(seen) == 0 {
		return []int{1, 3, 7}
	}
	return seen
}

// Table1Circuits lists the benchmark circuits of Table I in paper order.
func Table1Circuits() []string {
	var out []string
	last := ""
	for _, row := range PaperTable1 {
		if row.Circuit != last {
			out = append(out, row.Circuit)
			last = row.Circuit
		}
	}
	return out
}

// MeasuredRows converts a CircuitResult into Table I rows for the
// circuit's published K values.
func MeasuredRows(r *CircuitResult) []Table1Row {
	var rows []Table1Row
	for _, k := range Table1KValues(r.Config.Circuit) {
		rows = append(rows, Table1Row{
			Circuit: r.Config.Circuit,
			K:       k,
			I:       100 * r.SuccessRate(core.MethodI, k),
			II:      100 * r.SuccessRate(core.MethodII, k),
			Rev:     100 * r.SuccessRate(core.AlgRev, k),
		})
	}
	return rows
}

// FormatTable1 renders measured rows alongside the paper's, in the
// paper's layout.
func FormatTable1(measured []Table1Row) string {
	paper := make(map[string]Table1Row)
	for _, row := range PaperTable1 {
		paper[fmt.Sprintf("%s/%d", row.Circuit, row.K)] = row
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %3s | %8s %8s %8s | %8s %8s %8s\n",
		"circuit", "K", "I(meas)", "II(meas)", "rev(meas)", "I(paper)", "II(paper)", "rev(paper)")
	sb.WriteString(strings.Repeat("-", 86) + "\n")
	for _, row := range measured {
		p, ok := paper[fmt.Sprintf("%s/%d", row.Circuit, row.K)]
		pi, pii, prev := "-", "-", "-"
		if ok {
			pi = fmt.Sprintf("%.0f", p.I)
			pii = fmt.Sprintf("%.0f", p.II)
			prev = fmt.Sprintf("%.0f", p.Rev)
		}
		fmt.Fprintf(&sb, "%-8s %3d | %8s %8s %8s | %8s %8s %8s\n",
			row.Circuit, row.K, fmtMeas(row.I, 0), fmtMeas(row.II, 0), fmtMeas(row.Rev, 0), pi, pii, prev)
	}
	return sb.String()
}
