package defect

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
)

// MultiDefect is a set of simultaneous single-arc defects — the
// general segment-oriented model of Definition D.9 without the
// single-defect restriction. The paper's future-work item (3) asks how
// relaxing the single-defect assumption affects diagnosis; the
// multi-defect injection here and the iterative diagnosis in
// internal/core answer that question experimentally.
type MultiDefect []Defect

// Contains reports whether the set has a defect on arc a.
func (md MultiDefect) Contains(a circuit.ArcID) bool {
	for _, d := range md {
		if d.Arc == a {
			return true
		}
	}
	return false
}

func (md MultiDefect) String() string {
	s := "multi["
	for i, d := range md {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	return s + "]"
}

// SampleMulti draws n simultaneous defects with distinct locations.
// It panics if n exceeds the number of candidate arcs.
func (in *Injector) SampleMulti(n int, r *rand.Rand) MultiDefect {
	if n > len(in.logicArcs) {
		panic(fmt.Sprintf("defect: %d defects for %d candidate arcs", n, len(in.logicArcs)))
	}
	used := make(map[circuit.ArcID]bool, n)
	md := make(MultiDefect, 0, n)
	for len(md) < n {
		a := in.SampleLocation(r)
		if used[a] {
			continue
		}
		used[a] = true
		md = append(md, Defect{Arc: a, Size: in.SampleSize(r)})
	}
	return md
}

// ApplyTo returns a copy of delays with every defect's extra delay
// added (the multi-defect analogue of tsim's single-arc overlay, which
// cannot express several simultaneous defects).
func (md MultiDefect) ApplyTo(delays []float64) []float64 {
	out := make([]float64, len(delays))
	copy(out, delays)
	for _, d := range md {
		out[d.Arc] += d.Size
	}
	return out
}
