package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// fastConfig shrinks the experiment for test runtimes.
func fastConfig(name string, n int) Config {
	cfg := DefaultConfig(name)
	cfg.N = n
	cfg.MaxPatterns = 5
	cfg.DictSamples = 32
	cfg.ClkSamples = 60
	return cfg
}

func TestRunCircuitMini(t *testing.T) {
	res, err := RunCircuit(fastConfig("mini", 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 6 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	for i, cs := range res.Cases {
		if cs.Escaped {
			continue
		}
		if cs.Patterns < 1 {
			t.Errorf("case %d: no patterns but not escaped", i)
		}
		if cs.Clk <= 0 {
			t.Errorf("case %d: clk = %v", i, cs.Clk)
		}
		if cs.Suspects < 1 {
			t.Errorf("case %d: no suspects but not escaped", i)
		}
		for m, rank := range cs.Rank {
			if rank < 0 || rank > cs.Suspects {
				t.Errorf("case %d method %v: rank %d of %d", i, m, rank, cs.Suspects)
			}
		}
	}
}

func TestSuccessRateMonotoneInK(t *testing.T) {
	res, err := RunCircuit(fastConfig("small", 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range core.Methods {
		prev := 0.0
		for k := 1; k <= 20; k++ {
			s := res.SuccessRate(m, k)
			if s < prev-1e-12 {
				t.Errorf("%v: success rate decreased at K=%d", m, k)
			}
			prev = s
		}
	}
}

func TestSuccessRateEmptyNaN(t *testing.T) {
	r := &CircuitResult{}
	if !math.IsNaN(r.SuccessRate(core.AlgRev, 1)) || !math.IsNaN(r.EscapeRate()) {
		t.Errorf("empty result should be NaN")
	}
	if got := (&StaticResult{}).SuccessRate(core.AlgRev, 1); !math.IsNaN(got) {
		t.Errorf("empty precomputed result SuccessRate = %v, want NaN", got)
	}
}

func TestRunCircuitDeterministic(t *testing.T) {
	cfg := fastConfig("mini", 3)
	a, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cases {
		ca, cb := a.Cases[i], b.Cases[i]
		if ca.Defect != cb.Defect || ca.Escaped != cb.Escaped || ca.Suspects != cb.Suspects {
			t.Errorf("case %d differs between identical runs", i)
		}
		for _, m := range core.Methods {
			if ca.Rank[m] != cb.Rank[m] {
				t.Errorf("case %d method %v rank differs", i, m)
			}
		}
	}
}

func TestTableHelpers(t *testing.T) {
	circuits := Table1Circuits()
	if len(circuits) != 8 || circuits[0] != "s1196" || circuits[7] != "s15850" {
		t.Errorf("circuits = %v", circuits)
	}
	ks := Table1KValues("s9234")
	if len(ks) != 3 || ks[0] != 2 || ks[2] != 11 {
		t.Errorf("s9234 K values = %v", ks)
	}
	if ks := Table1KValues("not-a-circuit"); len(ks) != 3 {
		t.Errorf("default K values = %v", ks)
	}
	if len(PaperTable1) != 24 {
		t.Errorf("paper table rows = %d, want 24", len(PaperTable1))
	}
}

func TestMeasuredRowsAndFormat(t *testing.T) {
	res, err := RunCircuit(fastConfig("mini", 4))
	if err != nil {
		t.Fatal(err)
	}
	res.Config.Circuit = "s1196" // borrow a published circuit's K values
	rows := MeasuredRows(res)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "s1196") || !strings.Contains(text, "rev(paper)") {
		t.Errorf("format missing content:\n%s", text)
	}
}

func TestFigure2Exact(t *testing.T) {
	r := Figure2()
	// φ for fault1: vec1 = 0.8*(1-0.4) = 0.48; vec2 = (1-0.5)*0.6 = 0.30
	if math.Abs(r.Phi[0][0]-0.48) > 1e-12 || math.Abs(r.Phi[0][1]-0.30) > 1e-12 {
		t.Errorf("fault1 φ = %v", r.Phi[0])
	}
	// φ for fault2: vec1 = 0.6*(1-0.3) = 0.42; vec2 = (1-0.2)*0.5 = 0.40
	if math.Abs(r.Phi[1][0]-0.42) > 1e-12 || math.Abs(r.Phi[1][1]-0.40) > 1e-12 {
		t.Errorf("fault2 φ = %v", r.Phi[1])
	}
	for _, m := range core.Methods {
		if _, ok := r.Scores[m]; !ok {
			t.Errorf("method %v missing", m)
		}
	}
	if s := FormatFigure2(r); !strings.Contains(s, "Alg_rev") {
		t.Errorf("format missing methods:\n%s", s)
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(120, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Differential detection is a bump: zero at clk = 0 (everything
	// fails with or without the defect) and zero at the largest clk
	// (nothing fails).
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.DetectLong > 0.01 || first.DetectShort > 0.01 {
		t.Errorf("at clk=0 differential detection should be ~0: %+v", first)
	}
	if last.DetectLong > 0.01 || last.DetectShort > 0.01 {
		t.Errorf("at max clk detection should be ~0: %+v", last)
	}
	// Part (a): both patterns see the defect somewhere, but the
	// long-path pattern's detection band sits at a larger clk — at the
	// rated clock only the long path still exposes the defect. Compare
	// the detection-weighted mean clk of the two bands.
	var longMass, shortMass, longCM, shortCM, longPeak float64
	for _, p := range r.Points {
		longMass += p.DetectLong
		shortMass += p.DetectShort
		longCM += p.DetectLong * p.Clk
		shortCM += p.DetectShort * p.Clk
		if p.DetectLong > longPeak {
			longPeak = p.DetectLong
		}
	}
	if longPeak < 0.5 {
		t.Errorf("long-path detection peak %v too small", longPeak)
	}
	if longMass == 0 || shortMass == 0 {
		t.Fatalf("a detection band is empty: long %v short %v", longMass, shortMass)
	}
	if longCM/longMass <= shortCM/shortMass {
		t.Errorf("long-path band center %v should sit above short %v",
			longCM/longMass, shortCM/shortMass)
	}
	// Part (b): the dominant-path defect changes captures over a much
	// wider band than the masked one (whose effect is hidden by the
	// max until clk drops into the masked path's own window).
	domArea, maskArea := 0.0, 0.0
	for _, p := range r.Points {
		domArea += p.DetectOnMax
		maskArea += p.DetectMasked
	}
	if domArea <= maskArea {
		t.Errorf("dominant-path defect area %v should exceed masked %v", domArea, maskArea)
	}
	if FormatFigure1(r) == "" {
		t.Errorf("empty format")
	}
}

func TestFigure3(t *testing.T) {
	r, err := Figure3(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	// Sorted ascending by error.
	truthSeen := false
	for i, cand := range r.Candidates {
		if i > 0 && cand.Err < r.Candidates[i-1].Err-1e-12 {
			t.Errorf("candidates not sorted at %d", i)
		}
		if cand.IsTruth {
			truthSeen = true
		}
		// Err must equal Σ mismatch².
		sum := 0.0
		for _, v := range cand.Mismatches {
			sum += v * v
		}
		if math.Abs(sum-cand.Err) > 1e-9 {
			t.Errorf("candidate %d: Err %v != Σ℘² %v", i, cand.Err, sum)
		}
	}
	if !truthSeen {
		t.Errorf("truth candidate missing")
	}
	if s := FormatFigure3(r, 5); !strings.Contains(s, "Σ(1-φ)²") {
		t.Errorf("format missing header:\n%s", s)
	}
}

func TestMeanAutoKEmptyNaN(t *testing.T) {
	// No diagnosed case → NaN, matching SuccessRate/AutoKSuccessRate,
	// and the table renderer shows it as "-" rather than a fake 0.
	r := &CircuitResult{}
	if !math.IsNaN(r.MeanAutoK()) {
		t.Errorf("MeanAutoK on empty result = %v, want NaN", r.MeanAutoK())
	}
	if got := fmtMeas(r.MeanAutoK(), 1); got != "-" {
		t.Errorf("fmtMeas(NaN) = %q, want -", got)
	}
	if got := fmtMeas(12.345, 1); got != "12.3" {
		t.Errorf("fmtMeas(12.345, 1) = %q", got)
	}
	rows := []Table1Row{{Circuit: "s1196", K: 1, I: math.NaN(), II: math.NaN(), Rev: math.NaN()}}
	out := FormatTable1(rows)
	if strings.Contains(out, "NaN") {
		t.Errorf("FormatTable1 leaked NaN:\n%s", out)
	}
}

func TestRunCircuitTimings(t *testing.T) {
	res, err := RunCircuit(fastConfig("mini", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings == nil {
		t.Fatal("Timings not populated")
	}
	snap := res.Timings.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no stages recorded")
	}
	byName := map[string]bool{}
	for _, s := range snap {
		byName[s.Name] = true
		if s.Calls < 1 {
			t.Errorf("stage %s: calls = %d", s.Name, s.Calls)
		}
		if s.Seconds < 0 {
			t.Errorf("stage %s: seconds = %v", s.Name, s.Seconds)
		}
	}
	// atpg runs for every case; later stages depend on escapes, but at
	// least the first stage must always be present.
	if !byName["atpg"] {
		t.Errorf("stage atpg missing; have %v", byName)
	}
	if res.Timings.TotalSeconds() < 0 {
		t.Errorf("total seconds = %v", res.Timings.TotalSeconds())
	}
	table := res.Timings.String()
	if !strings.Contains(table, "atpg") || !strings.Contains(table, "total") {
		t.Errorf("timings table missing rows:\n%s", table)
	}
}
