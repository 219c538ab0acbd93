package core

import (
	"math"
	"testing"
)

func TestMatrixMaxAbsDiff(t *testing.T) {
	a := []float64{0, 0.9, 0}
	b := []float64{0, 0.2, 0}
	if d := maxAbsDiff(a, b); math.Abs(d-0.7) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
}

func TestBehaviorBasics(t *testing.T) {
	b := NewBehavior(2, 3)
	if b.AnyFailure() {
		t.Errorf("fresh behavior fails")
	}
	b.Set(1, 2, true)
	b.Set(0, 0, true)
	if !b.AnyFailure() || b.FailCount() != 2 {
		t.Errorf("counting wrong")
	}
	fp := b.FailingPatterns()
	if len(fp) != 2 || fp[0] != 0 || fp[1] != 2 {
		t.Errorf("FailingPatterns = %v", fp)
	}
	if b.String() != "100\n001\n" {
		t.Errorf("String = %q", b.String())
	}
}

// maxAbsDiff returns the largest element-wise |a − b|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		v := a[i] - b[i]
		if v < 0 {
			v = -v
		}
		if v > d {
			d = v
		}
	}
	return d
}
