package obs

import (
	"math"
	"sync"
	"testing"
)

func TestReservoirQuantilesExact(t *testing.T) {
	r := NewReservoir()
	// 1..100 in a scrambled-but-fixed order: nearest-rank quantiles of
	// the integers are the integers themselves.
	for i := 0; i < 100; i++ {
		r.Observe(float64((i*37)%100 + 1))
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := r.Quantile(tc.q); got != tc.want { //lint:ignore floateq exact integral samples
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestReservoirEmptyAndSingle(t *testing.T) {
	r := NewReservoir()
	if !math.IsNaN(r.Quantile(0.5)) {
		t.Error("empty reservoir quantile is not NaN")
	}
	r.Observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := r.Quantile(q); got != 7 { //lint:ignore floateq exact single sample
			t.Errorf("q=%v of single sample = %v", q, got)
		}
	}
}

func TestReservoirObserveAfterQuantile(t *testing.T) {
	// Observations after a Quantile call (which sorts in place) must
	// still land correctly.
	r := NewReservoir()
	r.Observe(3)
	r.Observe(1)
	_ = r.Quantile(0.5)
	r.Observe(2)
	if got := r.Quantile(0.5); got != 2 { //lint:ignore floateq exact integral samples
		t.Errorf("median = %v, want 2", got)
	}
}

func TestReservoirConcurrentObserve(t *testing.T) {
	r := NewReservoir()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if r.Count() != 800 {
		t.Fatalf("count = %d, want 800", r.Count())
	}
	if got := r.Quantile(1); got != 99 { //lint:ignore floateq exact integral samples
		t.Errorf("max = %v, want 99", got)
	}
}
