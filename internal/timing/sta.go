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
// rng.NewDerived(seed, s)), propagates them in blocks on per-worker
// scratch (see kernel.go) and fans the blocks out across
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
	m := e.m
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
	if err := m.forBlocks(ctx, nSamples, seed, workers, func(sc *Scratch, s0, nb int) {
		arrivalEvals.Add(float64(nb))
		m.propagateBlock(sc, nb)
		for b := 0; b < nb; b++ {
			worst := 0.0
			for i, o := range m.C.Outputs {
				t := sc.arr[int(o)*block+b]
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

// TimingLengths estimates the statistical timing length TL(p) of each
// path, given as a sequence of arcs. Each sample block draws the full
// instance once (the same stream as every other method) and sums every
// path's arc delays from it in path order, so sample s of path i
// equals the scalar sum of its arcs on SampleInstanceSeeded(seed, s)
// bit for bit, whatever the other paths.
func (e *MC) TimingLengths(ctx context.Context, paths [][]circuit.ArcID, nSamples int, seed uint64, workers int) ([]dist.Distribution, error) {
	m := e.m
	if nSamples > 0 {
		tlSamples.Add(float64(nSamples))
	}
	xs := make([]float64, len(paths)*nSamples)
	if err := m.forBlocks(ctx, nSamples, seed, workers, func(sc *Scratch, s0, nb int) {
		for i, arcs := range paths {
			x := xs[i*nSamples+s0 : i*nSamples+s0+nb]
			for b := range x {
				t := 0.0
				for _, a := range arcs {
					t += sc.delays[int(a)*block+b]
				}
				x[b] = t
			}
		}
	}); err != nil {
		return nil, err
	}
	tls := make([]dist.Distribution, len(paths))
	for i := range tls {
		tls[i] = dist.NewEmpirical(xs[i*nSamples : (i+1)*nSamples])
	}
	return tls, nil
}
