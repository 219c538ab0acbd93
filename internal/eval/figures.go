package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/timing/engine"
	"repro/internal/tsim"
)

// ---------------------------------------------------------------------------
// Figure 1: why logic resolution differs from timing resolution.
// ---------------------------------------------------------------------------

// fig1aBench gates a short and a long sensitization path of the same
// fault site d behind separate select inputs, so each pattern detects
// the fault through exactly one path.
const fig1aBench = `
INPUT(a)
INPUT(s)
INPUT(t)
OUTPUT(o1)
OUTPUT(o2)
d  = BUF(a)
n1 = NOT(d)
n2 = NOT(n1)
n3 = NOT(n2)
n4 = NOT(n3)
o1 = AND(n4, t)
o2 = AND(d, s)
`

// fig1bBench merges a long path from x and a short path from y at a
// 2-input AND, so the output arrival is max(a1, a2) with
// P(a1 > a2) = 1: a defect on the short path is timing-masked.
const fig1bBench = `
INPUT(x)
INPUT(y)
OUTPUT(m)
p1a = BUF(x)
p1b = BUF(p1a)
p1c = BUF(p1b)
p1d = BUF(p1c)
p2a = BUF(y)
m   = AND(p1d, p2a)
`

// Figure1Point is one sweep sample of a detection-probability curve.
// Detect* values are differential: P(fail | defect) − P(fail | fault
// free), i.e. the additional critical probability the defect
// contributes (the paper's signature semantics, S = E − M), clamped at
// zero. This isolates defect-caused failures from dies that fail the
// clock anyway.
type Figure1Point struct {
	Clk          float64
	DetectLong   float64 // part (a): defect seen via the long-path pattern
	DetectShort  float64 // part (a): defect seen via the short-path pattern
	DetectOnMax  float64 // part (b): defect on the dominating path of a max
	DetectMasked float64 // part (b): defect on the dominated (masked) path
}

// Figure1Result holds the regenerated Figure 1 scenario data.
type Figure1Result struct {
	DefectSize float64
	Points     []Figure1Point
}

// Figure1 regenerates the Figure 1 scenarios by statistical defect
// simulation: for a sweep of cut-off periods it measures, over MC
// instances, the probability that the injected defect produces a
// failing output under each pattern. Part (a) shows that the same
// defect detected through a short path stops being detected at a much
// smaller clk than through a long path; part (b) shows that a pattern
// which logically sensitizes two fault sites can still timing-
// differentiate them when one path's arrival dominates the max.
func Figure1(samples, points int, seed uint64) (*Figure1Result, error) {
	ca, err := benchfmt.ParseString(fig1aBench, "fig1a", false)
	if err != nil {
		return nil, err
	}
	cb, err := benchfmt.ParseString(fig1bBench, "fig1b", false)
	if err != nil {
		return nil, err
	}
	ma := timing.NewModel(ca, timing.DefaultParams())
	mb := timing.NewModel(cb, timing.DefaultParams())

	// Part (a): fault site is the arc a -> d.
	dGate, _ := ca.GateByName("d")
	siteA := dGate.InArcs[0]
	// v_long: flip a with t=1, s=0; v_short: flip a with t=0, s=1.
	vLong := logicsim.PatternPair{V1: logicsim.Vector{false, false, true}, V2: logicsim.Vector{true, false, true}}
	vShort := logicsim.PatternPair{V1: logicsim.Vector{false, true, false}, V2: logicsim.Vector{true, true, false}}

	// Part (b): fault sites on the long chain (x side) and the short
	// side (y). Both are logically sensitized by flipping x and y
	// together (rising inputs, AND output rises at max arrival).
	p1b, _ := cb.GateByName("p1b")
	siteOnMax := p1b.InArcs[0]
	p2a, _ := cb.GateByName("p2a")
	siteMasked := p2a.InArcs[0]
	vBoth := logicsim.PatternPair{V1: logicsim.Vector{false, false}, V2: logicsim.Vector{true, true}}

	size := 1.0 * ma.MeanCellDelay()
	res := &Figure1Result{DefectSize: size}

	// Sweep clk across the interesting range of the longest response.
	maxClk := PatternResponseQuantile(ma, []logicsim.PatternPair{vLong}, 0.999, samples, rng.Derive(seed, 7), 0) + size + 1
	for pt := 0; pt < points; pt++ {
		clk := maxClk * float64(pt) / float64(points-1)
		p := Figure1Point{Clk: clk}
		p.DetectLong = detectProb(ca, ma, vLong, siteA, size, clk, samples, rng.Derive(seed, 11))
		p.DetectShort = detectProb(ca, ma, vShort, siteA, size, clk, samples, rng.Derive(seed, 11))
		p.DetectOnMax = detectProb(cb, mb, vBoth, siteOnMax, size, clk, samples, rng.Derive(seed, 13))
		p.DetectMasked = detectProb(cb, mb, vBoth, siteMasked, size, clk, samples, rng.Derive(seed, 13))
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// detectProb estimates the differential detection probability
// P(some output fails at clk | defect) − P(some output fails | fault
// free) for a fixed-size defect on arc site under one pattern, using
// the same instance samples for both terms (common random numbers).
func detectProb(c *circuit.Circuit, m *timing.Model, pat logicsim.PatternPair, site circuit.ArcID, size, clk float64, samples int, seed uint64) float64 {
	eng := tsim.NewEngine(c)
	diff := 0
	for s := 0; s < samples; s++ {
		inst := m.SampleInstanceSeeded(seed, uint64(s))
		opts := tsim.AtClock(clk)
		opts.DefectArc = site
		opts.DefectExtra = size
		bad := len(eng.Run(inst.Delays, pat, opts).FailingOutputs(c)) > 0
		good := len(eng.Run(inst.Delays, pat, tsim.AtClock(clk)).FailingOutputs(c)) > 0
		if bad && !good {
			diff++
		}
	}
	return float64(diff) / float64(samples)
}

// FormatFigure1 renders the sweep as aligned columns.
func FormatFigure1(r *Figure1Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "defect size = %.3f (one mean cell delay)\n", r.DefectSize)
	fmt.Fprintf(&sb, "%8s %12s %12s %12s %12s\n", "clk", "P(long)", "P(short)", "P(dominant)", "P(masked)")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8.3f %12.3f %12.3f %12.3f %12.3f\n",
			p.Clk, p.DetectLong, p.DetectShort, p.DetectOnMax, p.DetectMasked)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 2: the probabilistic dictionary matching ambiguity.
// ---------------------------------------------------------------------------

// Figure2Result evaluates the paper's Figure 2 example — the 0-1
// behavior matrix against the two candidate probability matrices —
// under every diagnosis method.
type Figure2Result struct {
	Phi    [2][]float64               // per-fault per-vector consistency
	Scores map[core.Method][2]float64 // per-method scores
	Winner map[core.Method]int        // 0 = fault #1, 1 = fault #2
}

// Figure2 computes the example deterministically (no simulation).
func Figure2() *Figure2Result {
	// Probabilities of failing from the figure: fault #1 then fault #2,
	// rows = PO1, PO2; columns = Vec1, Vec2, so cell K = 4·fault +
	// 2·PO + Vec. They are the dictionary's E with M = 0, so the
	// signatures S = E − 0 are the figure's matrices exactly.
	b := core.NewBehavior(2, 2)
	b.Set(0, 0, true) // PO1 fails Vec1
	b.Set(1, 1, true) // PO2 fails Vec2

	d := core.NewDictionary([]circuit.ArcID{0, 1}, 2, 2, make([]float64, 4), []engine.ECell{
		{K: 0, E: 0.8}, {K: 1, E: 0.5}, {K: 2, E: 0.4}, {K: 3, E: 0.6}, // fault #1
		{K: 4, E: 0.6}, {K: 5, E: 0.2}, {K: 6, E: 0.3}, {K: 7, E: 0.5}, // fault #2
	})
	res := &Figure2Result{
		Scores: make(map[core.Method][2]float64),
		Winner: make(map[core.Method]int),
	}
	for i := 0; i < 2; i++ {
		res.Phi[i] = d.PatternConsistency(i, b)
	}
	for _, m := range core.Methods {
		s := [2]float64{m.Score(res.Phi[0]), m.Score(res.Phi[1])}
		res.Scores[m] = s
		ranked := d.Diagnose(b, m, 1)
		res.Winner[m] = int(ranked[0].Arc)
	}
	return res
}

// FormatFigure2 renders the example evaluation.
func FormatFigure2(r *Figure2Result) string {
	var sb strings.Builder
	sb.WriteString("behavior B = [PO1: 1 0 | PO2: 0 1]\n")
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&sb, "fault #%d: φ = %.4f %.4f\n", i+1, r.Phi[i][0], r.Phi[i][1])
	}
	for _, m := range core.Methods {
		s := r.Scores[m]
		fmt.Fprintf(&sb, "%-11s scores: %.4f vs %.4f -> picks fault #%d\n", m, s[0], s[1], r.Winner[m]+1)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 3: the equivalence-checking error model.
// ---------------------------------------------------------------------------

// Figure3Candidate is one row of the regenerated Figure 3 data: a
// candidate defect with its per-pattern mismatch probabilities
// ℘_ij = 1 − φ_j and the Euclidean error Σ ℘².
type Figure3Candidate struct {
	Arc        circuit.ArcID
	Mismatches []float64
	Err        float64
	IsTruth    bool
}

// Figure3Result holds the per-candidate error decomposition of one
// diagnosis case under the equivalence-checking model.
type Figure3Result struct {
	Clk        float64
	Truth      circuit.ArcID
	Candidates []Figure3Candidate // sorted by Err ascending (best first)
}

// Figure3 runs one concrete diagnosis case on a small synthetic
// circuit and decomposes every candidate's error under the
// equivalence-checking model of Section F-2: the per-pattern
// probability that at least one output mismatches, and the Euclidean
// distance to the ideal all-zero vector (equation 5).
func Figure3(seed uint64) (*Figure3Result, error) {
	cfg := DefaultConfig("mini")
	cfg.CircuitSeed = 9
	cfg.Seed = seed
	cfg.Timing = timing.DefaultParams()
	cfg.MaxPatterns = 8
	cfg.DictSamples = 128
	cfg.ClkQuantile = 0.95
	p, err := newNamedPipeline(cfg)
	if err != nil {
		return nil, err
	}
	// Run cases until one produces observable failures with the truth
	// among the suspects, so the figure has content.
	for i := 0; i < 50; i++ {
		cs := p.NewCase(i)
		cs.Truth[0].Size *= 3 // a clearly visible defect makes a better illustration
		if err := p.Run(context.Background(), cs); err != nil {
			return nil, err
		}
		if cs.Dict == nil {
			continue
		}
		truth := cs.Truth[0].Arc
		res := &Figure3Result{Clk: cs.Clk, Truth: truth}
		for _, rk := range cs.Ranked[core.AlgRev] {
			phi := cs.Dict.PatternConsistency(cs.Dict.SuspectIndex(rk.Arc), cs.B)
			mis := make([]float64, len(phi))
			for j, v := range phi {
				mis[j] = 1 - v
			}
			res.Candidates = append(res.Candidates, Figure3Candidate{
				Arc: rk.Arc, Mismatches: mis, Err: rk.Score, IsTruth: rk.Arc == truth,
			})
		}
		return res, nil
	}
	return nil, fmt.Errorf("eval: Figure3 found no diagnosable case")
}

// FormatFigure3 renders the top candidates of the error decomposition.
func FormatFigure3(r *Figure3Result, top int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "clk = %.3f, true defect arc = %d\n", r.Clk, r.Truth)
	fmt.Fprintf(&sb, "%6s %10s  %s\n", "arc", "Σ(1-φ)²", "per-pattern mismatch probabilities ℘_j")
	n := len(r.Candidates)
	if n > top {
		n = top
	}
	for _, cand := range r.Candidates[:n] {
		mark := " "
		if cand.IsTruth {
			mark = "*"
		}
		var ms []string
		for _, v := range cand.Mismatches {
			ms = append(ms, fmt.Sprintf("%.3f", v))
		}
		fmt.Fprintf(&sb, "%5d%s %10.4f  [%s]\n", cand.Arc, mark, cand.Err, strings.Join(ms, " "))
	}
	return sb.String()
}
