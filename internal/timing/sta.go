package timing

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist"
)

// ArrivalTimes computes topological (latest-transition, i.e. static)
// arrival times for every gate of a fixed-delay instance: inputs launch
// at t = 0 and each gate's arrival is the max over its in-arcs of the
// driver arrival plus the arc delay. The returned slice is indexed by
// GateID.
func (m *Model) ArrivalTimes(in *Instance) []float64 {
	arrivalEvals.Inc()
	arr := make([]float64, len(m.C.Gates))
	for _, gid := range m.C.Order {
		g := &m.C.Gates[gid]
		if len(g.Fanin) == 0 {
			arr[gid] = 0
			continue
		}
		best := 0.0
		for k, fi := range g.Fanin {
			if t := arr[fi] + in.Delays[g.InArcs[k]]; k == 0 || t > best {
				best = t
			}
		}
		arr[gid] = best
	}
	return arr
}

// MC is the Monte-Carlo timing engine, the bit-exact oracle every
// result in the repo is defined against. Each method samples circuit
// instances deterministically from seed (instance s is drawn from
// rng.NewDerived(seed, s)), propagates them in blocks on reusable
// per-worker scratch (see kernel.go) and fans the blocks out across
// workers goroutines (0 = GOMAXPROCS, see par.Workers). Results are
// bit-identical under any worker count. Every method checks ctx
// between sample blocks; a cancelled run returns a zero result and
// ctx.Err(), never a partial estimate biased toward whichever samples
// completed.
type MC struct {
	m *Model
}

// NewMC returns the Monte-Carlo engine over m.
func NewMC(m *Model) *MC { return &MC{m: m} }

// Name returns "mc".
func (e *MC) Name() string { return "mc" }

// STA estimates the empirical arrival-time distribution Ar(o_i) of
// every primary output and the circuit delay Δ(C) = max_i Ar(o_i)
// (Section D-1 of the paper) from nSamples sampled instances.
func (e *MC) STA(ctx context.Context, nSamples int, seed uint64, workers int) (*STADist, error) {
	return e.m.staBlocked(ctx, nSamples, seed, workers, DefaultBlock)
}

// staBlocked is the blocked implementation behind MC.STA, with an
// explicit block width so equivalence tests and the fuzz target can
// vary it. Results are bit-identical for every block >= 1 (see the
// kernel contract in kernel.go).
func (m *Model) staBlocked(ctx context.Context, nSamples int, seed uint64, workers, block int) (*STADist, error) {
	start := time.Now()
	defer func() {
		staSeconds.Add(time.Since(start).Seconds())
	}()
	if nSamples > 0 {
		staSamples.Add(float64(nSamples))
	}
	nOut := len(m.C.Outputs)
	perOut := make([][]float64, nOut)
	for i := range perOut {
		perOut[i] = make([]float64, nSamples)
	}
	delays := make([]float64, nSamples)
	if err := m.forBlocks(ctx, nSamples, seed, workers, block, func(_ int, sc *Scratch, s0, nb int) {
		arrivalEvals.Add(float64(nb))
		m.propagateBlock(sc, nb)
		B := sc.block
		for b := 0; b < nb; b++ {
			worst := 0.0
			for i, o := range m.C.Outputs {
				t := sc.arr[int(o)*B+b]
				perOut[i][s0+b] = t
				if t > worst {
					worst = t
				}
			}
			delays[s0+b] = worst
		}
	}); err != nil {
		return nil, err
	}
	res := &STADist{
		Arrivals:     make([]dist.Distribution, nOut),
		CircuitDelay: dist.NewEmpirical(delays),
	}
	for i := range perOut {
		res.Arrivals[i] = dist.NewEmpirical(perOut[i])
	}
	return res, nil
}

// TimingLength estimates the statistical timing length TL(p) of a path
// given as a sequence of arcs. Each sample draws the full instance
// (the same stream as every other method) and sums the path's arc
// delays in path order, so sample s equals the scalar sum of those
// arcs on SampleInstanceSeeded(seed, s) bit for bit.
func (e *MC) TimingLength(ctx context.Context, arcs []circuit.ArcID, nSamples int, seed uint64, workers int) (dist.Distribution, error) {
	m := e.m
	if nSamples > 0 {
		tlSamples.Add(float64(nSamples))
	}
	xs := make([]float64, nSamples)
	if err := m.forBlocks(ctx, nSamples, seed, workers, DefaultBlock, func(_ int, sc *Scratch, s0, nb int) {
		B := sc.block
		for b := 0; b < nb; b++ {
			t := 0.0
			for _, a := range arcs {
				t += sc.delays[int(a)*B+b]
			}
			xs[s0+b] = t
		}
	}); err != nil {
		return nil, err
	}
	return dist.NewEmpirical(xs), nil
}
