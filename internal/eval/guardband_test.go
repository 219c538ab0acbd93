package eval

import (
	"strings"
	"testing"
)

func TestGuardbandCurve(t *testing.T) {
	cfg := fastConfig("small", 6)
	qs := []float64{0.1, 0.5, 0.9, 0.99}
	pts, err := GuardbandCurve(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(qs) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Escape < 0 || p.Escape > 1 || p.FalseAlarm < 0 || p.FalseAlarm > 1 {
			t.Errorf("point %d out of range: %+v", i, p)
		}
		if i == 0 {
			continue
		}
		// Raising clk (higher quantile) can only reduce false alarms
		// and raise escapes — both monotone within sampling noise.
		if p.FalseAlarm > pts[i-1].FalseAlarm+1e-9 {
			t.Errorf("false alarms rose with clk: %v -> %v", pts[i-1], p)
		}
		if p.Escape < pts[i-1].Escape-1e-9 {
			t.Errorf("escapes fell with clk: %v -> %v", pts[i-1], p)
		}
	}
	// The extremes behave as the physics dictates: a very tight clock
	// catches (almost) everything but flags many good dies; a very
	// loose one passes good dies while defects start escaping.
	if pts[0].Escape > pts[len(pts)-1].Escape {
		t.Errorf("escape not increasing across the sweep")
	}
	var sb strings.Builder
	if err := WriteGuardbandCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "quantile,escape,false_alarm\n") {
		t.Errorf("CSV header missing")
	}
}
