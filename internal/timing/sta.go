package timing

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/rng"
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
	if block <= 0 {
		block = DefaultBlock
	}
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	defer func() {
		for _, sc := range scratches {
			if sc != nil {
				m.releaseScratch(sc)
			}
		}
	}()
	if _, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = m.acquireScratch(block)
			scratches[w] = sc
		}
		s0 := j * block
		nb := block
		if s0+nb > nSamples {
			nb = nSamples - s0
		}
		arrivalEvals.Add(float64(nb))
		m.sampleBlock(sc, seed, s0, nb)
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
	block := DefaultBlock
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	defer func() {
		for _, sc := range scratches {
			if sc != nil {
				m.releaseScratch(sc)
			}
		}
	}()
	if _, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = m.acquireScratch(block)
			scratches[w] = sc
		}
		s0 := j * block
		nb := block
		if s0+nb > nSamples {
			nb = nSamples - s0
		}
		m.sampleBlock(sc, seed, s0, nb)
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

// quantileSeed is the sub-stream index used by helpers that need an
// auxiliary instance stream distinct from the main MC stream.
const quantileSeed = 0x51a9

// SuggestClock returns the q-quantile of the Monte-Carlo circuit-delay
// distribution — the natural way to pick the cut-off period clk for an
// experiment (e.g. q = 0.95 puts 5 % of defect-free dies over clk).
// The STA run samples the quantileSeed sub-stream of seed.
func (e *MC) SuggestClock(ctx context.Context, q float64, nSamples int, seed uint64, workers int) (float64, error) {
	res, err := e.STA(ctx, nSamples, rng.Derive(seed, quantileSeed), workers)
	if err != nil {
		return 0, err
	}
	return res.CircuitDelay.Quantile(q), nil
}
