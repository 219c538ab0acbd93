package timing

import (
	"context"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/par"
)

// Statistical criticality (the quantity behind the paper's companion
// path-selection work [16]): the probability, over manufacturing
// variation, that an arc lies on the circuit's critical (longest)
// path. Deterministic STA reports one critical path; under variation
// the critical path wanders, and arcs are critical with probabilities
// that this analysis estimates by Monte Carlo.

// Criticality holds per-arc critical-path membership probabilities.
type Criticality struct {
	Prob []float64 // indexed by ArcID
}

// Criticality estimates per-arc critical-path probabilities: on each
// of nSamples sampled instances it computes arrival times, walks the
// critical path backward from the latest output, and counts each
// traversed arc. Per-arc counts accumulate in int64 per worker and are
// summed exactly before the single division by nSamples, so the
// estimate is bit-identical under any worker count or block width.
//
// nSamples <= 0 returns the zero-value Criticality (every probability
// zero): no samples means no evidence, and an estimate over an empty
// sample set is the empty estimate, never a division by zero.
func (e *MC) Criticality(ctx context.Context, nSamples int, seed uint64, workers int) (*Criticality, error) {
	m := e.m
	if nSamples <= 0 {
		return &Criticality{Prob: make([]float64, len(m.C.Arcs))}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		critSeconds.Add(time.Since(start).Seconds())
	}()
	critSamples.Add(float64(nSamples))
	counts := make([][]int64, par.Workers(workers, nSamples))
	if err := m.forBlocks(ctx, nSamples, seed, workers, DefaultBlock, func(w int, sc *Scratch, _, nb int) {
		if counts[w] == nil {
			counts[w] = make([]int64, len(m.C.Arcs))
		}
		arrivalEvals.Add(float64(nb))
		m.propagateBlock(sc, nb)
		m.backtraceBlock(sc, nb, counts[w])
	}); err != nil {
		return nil, err
	}
	total := make([]int64, len(m.C.Arcs))
	for _, cnt := range counts {
		for i, v := range cnt {
			total[i] += v
		}
	}
	cr := &Criticality{Prob: make([]float64, len(m.C.Arcs))}
	for i, v := range total {
		cr.Prob[i] = float64(v) / float64(nSamples)
	}
	return cr, nil
}

// Top returns the k most critical arcs, most probable first (ties by
// ascending arc ID).
func (cr *Criticality) Top(k int) []circuit.ArcID {
	type pair struct {
		a circuit.ArcID
		p float64
	}
	ps := make([]pair, 0, len(cr.Prob))
	for i, p := range cr.Prob {
		if p > 0 {
			ps = append(ps, pair{a: circuit.ArcID(i), p: p})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].p > ps[j].p {
			return true
		}
		if ps[i].p < ps[j].p {
			return false
		}
		return ps[i].a < ps[j].a
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	out := make([]circuit.ArcID, len(ps))
	for i, p := range ps {
		out[i] = p.a
	}
	return out
}
