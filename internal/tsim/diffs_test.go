package tsim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/rng"
)

// fuzzWave draws a right-continuous waveform of n steps from init:
// every step toggles, and the gap before it is a multiple of grid or,
// one time in four, a single ulp, so that delayed arrivals can round
// to one instant.
func fuzzWave(r *rand.Rand, n int, init bool, grid float64) []Step {
	w := make([]Step, n)
	t, v := grid*float64(r.IntN(8)), init
	for i := range w {
		if i > 0 {
			if r.IntN(4) == 0 {
				t = math.Nextafter(t, math.Inf(1))
			} else {
				t += grid * float64(1+r.IntN(4))
			}
		}
		v = !v
		w[i] = Step{T: t, V: v}
	}
	return w
}

// pinAt is the value at t of a pin fed by w from init: the value of
// the last step whose arrival (T + da) + d is at or before t.
func pinAt(w []Step, init bool, da, d, t float64) bool {
	v := init
	for _, s := range w {
		if s.T+da+d <= t {
			v = s.V
		}
	}
	return v
}

// inSpans reports whether t lies in one of the intervals.
func inSpans(iv []span, t float64) bool {
	for _, s := range iv {
		if s.lo <= t && t < s.hi {
			return true
		}
	}
	return false
}

// FuzzDiffs checks diffs against a pointwise oracle and Window.sees
// against a brute-force scan of the window. It draws two waveforms
// from one initial value, their delays, a further shift d and a window.
// The intervals must be nonempty, ordered and apart, and hold exactly
// the instants at and between all arrivals where the two pins differ;
// sees must answer "no" exactly when the pins, shifted by d, hold equal
// values at the window's lower end and at every arrival inside it.
func FuzzDiffs(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(6), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(9), uint8(9), uint8(2))
	f.Add(uint64(4), uint8(5), uint8(7), uint8(0x83))
	f.Fuzz(func(t *testing.T, seed uint64, na, nb, sel uint8) {
		r := rng.New(seed)
		grid := []float64{0.5, 0.25, 0.1, 3.7}[sel&3]
		init := r.IntN(2) == 0
		a := fuzzWave(r, int(na%12), init, grid)
		b := fuzzWave(r, int(nb%12), init, grid)
		delay := func() float64 {
			if sel&0x80 != 0 {
				return 0
			}
			return grid*float64(r.IntN(6)) + []float64{0, 0.1, 1e3}[r.IntN(3)]
		}
		da, db, d := delay(), delay(), delay()
		iv := diffs(nil, a, da, b, db)

		var at []float64
		for _, s := range a {
			at = append(at, s.T+da)
		}
		for _, s := range b {
			at = append(at, s.T+db)
		}
		slices.Sort(at)
		probes := slices.Clone(at)
		for i := 1; i < len(at); i++ {
			probes = append(probes, at[i-1]+(at[i]-at[i-1])/2)
		}
		if len(at) > 0 {
			probes = append(probes, at[0]-1, at[len(at)-1]+1)
		}
		for k, s := range iv {
			if !(s.lo < s.hi) || k > 0 && !(iv[k-1].hi < s.lo) {
				t.Fatalf("intervals not nonempty, ordered and apart: %v", iv)
			}
		}
		for _, p := range probes {
			if want := pinAt(a, init, da, 0, p) != pinAt(b, init, db, 0, p); inSpans(iv, p) != want {
				t.Fatalf("t=%v: in intervals %v = %v, pins differ = %v\na=%v da=%v\nb=%v db=%v", p, iv, !want, want, a, da, b, db)
			}
		}

		lo, hi, horizon := math.Inf(-1), math.Inf(1), math.Inf(1)
		if len(at) > 0 {
			pick := func() float64 { return at[r.IntN(len(at))] + d + grid*float64(r.IntN(3)-1) }
			if r.IntN(4) > 0 {
				lo = pick()
			}
			if r.IntN(4) > 0 {
				hi = pick()
			}
			if r.IntN(2) == 0 {
				horizon = pick()
			}
		}
		win := &Window{lo: []float64{lo}, hi: []float64{hi}}
		top := min(hi, horizon)
		scan := []float64{lo}
		for _, x := range at {
			scan = append(scan, x+d)
		}
		sees := false
		for _, p := range scan {
			if lo <= p && p <= top && pinAt(a, init, da, d, p) != pinAt(b, init, db, d, p) {
				sees = true
			}
		}
		if got := win.sees(iv, d, 0, horizon); got != sees {
			t.Fatalf("sees(d=%v, [%v, %v], horizon %v) = %v, brute force %v; intervals %v", d, lo, hi, horizon, got, sees, iv)
		}
	})
}
