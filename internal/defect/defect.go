// Package defect implements the paper's segment-oriented defect models
// (Definitions D.9, D.10): a defect lives on one circuit arc and adds a
// random-size extra delay there. The evaluation methodology (Section I)
// draws both the location and the size at random — the size random
// variable has a mean between 50 % and 100 % of a cell delay with
// 3σ = 50 % of the mean — and the diagnosis side assumes a size
// distribution without knowing the drawn mean.
package defect

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/dist"
)

// Params configures defect injection.
type Params struct {
	// MeanLo/MeanHi bound the defect-size mean as a fraction of the
	// mean cell delay. Paper: [0.5, 1.0].
	MeanLo, MeanHi float64
	// SigmaFrac is σ of the size distribution as a fraction of its
	// mean. Paper: 3σ = 0.5·mean, i.e. 1/6.
	SigmaFrac float64
}

// DefaultParams returns the paper's injection parameters.
func DefaultParams() Params {
	return Params{MeanLo: 0.5, MeanHi: 1.0, SigmaFrac: 1.0 / 6.0}
}

// Defect is one concrete injected defect: the single-defect model D_s
// with ρ concentrated on Arc and a drawn size δ = Size.
type Defect struct {
	Arc  circuit.ArcID `json:"arc"`
	Size float64       `json:"size"`
}

func (d Defect) String() string { return fmt.Sprintf("defect(arc=%d, δ=%.4g)", d.Arc, d.Size) }

// Injector draws random single defects for a circuit, uniformly over
// logic arcs (arcs into output-port gates are measurement artifacts,
// not physical segments, and are excluded).
type Injector struct {
	C         *circuit.Circuit
	P         Params
	CellDelay float64 // the "cell delay" unit (timing.Model.MeanCellDelay)

	logicArcs []circuit.ArcID
}

// NewInjector returns an Injector for c with cell-delay unit cellDelay.
func NewInjector(c *circuit.Circuit, cellDelay float64, p Params) *Injector {
	in := &Injector{C: c, P: p, CellDelay: cellDelay}
	for i := range c.Arcs {
		if c.Gates[c.Arcs[i].To].Type != circuit.Output {
			in.logicArcs = append(in.logicArcs, circuit.ArcID(i))
		}
	}
	return in
}

// CandidateArcs returns the arcs eligible as defect locations — the
// domain of the defect vector ρ.
func (in *Injector) CandidateArcs() []circuit.ArcID {
	return in.logicArcs
}

// SampleLocation draws a defect location uniformly over logic arcs.
func (in *Injector) SampleLocation(r *rand.Rand) circuit.ArcID {
	return in.logicArcs[r.IntN(len(in.logicArcs))]
}

// SizeDist returns the size distribution for one defect whose mean has
// been drawn: a normal with σ = SigmaFrac·mean truncated at zero.
func (in *Injector) SizeDist(mean float64) dist.Dist {
	return dist.TruncNormal{Mu: mean, Sigma: in.P.SigmaFrac * mean, Lo: 0}
}

// SampleSize draws a defect size: first the mean uniformly in
// [MeanLo, MeanHi]·CellDelay, then the size from SizeDist(mean).
func (in *Injector) SampleSize(r *rand.Rand) float64 {
	mean := (in.P.MeanLo + (in.P.MeanHi-in.P.MeanLo)*r.Float64()) * in.CellDelay
	return in.SizeDist(mean).Sample(r)
}

// Sample draws a complete random defect (location and size) — one
// failing die's ground truth in the evaluation loop.
func (in *Injector) Sample(r *rand.Rand) Defect {
	return Defect{Arc: in.SampleLocation(r), Size: in.SampleSize(r)}
}

// AssumedSizeDist is the size distribution the *diagnosis* assumes for
// candidate defects when building the probabilistic fault dictionary.
// The true drawn mean is unknown to the diagnosis, so the midpoint of
// the mean range is used — the asymmetry between injection and
// assumption is part of the problem the diagnosis has to survive.
func (in *Injector) AssumedSizeDist() dist.Dist {
	mean := (in.P.MeanLo + in.P.MeanHi) / 2 * in.CellDelay
	return in.SizeDist(mean)
}
