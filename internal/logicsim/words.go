package logicsim

import (
	"fmt"

	"repro/internal/circuit"
)

// Word-parallel sensitization. SensitizedArcs walks one pattern pair
// at a time; this kernel answers the same question for 64 pattern
// pairs at once, one lane per bit, by replacing the depth-first walk
// with a reverse-topological sweep of per-gate reachability masks.
//
// Per lane the semantics are identical to SensitizedArcs: an arc into
// pin k of gate g is sensitized when g is reachable from the output
// along transitioning, sensitized arcs, its driver transitions, and
// every other pin of g holds a non-controlling final value.

// SensitizedArcsWordsInto accumulates, for primary output outIdx, the
// per-arc sensitization masks of a 64-lane block into dst
// (dst[arcID] |= mask; len(dst) must be len(c.Arcs)). init and final
// are the word-parallel settled values of the two vectors of every
// pattern pair (EvalWordsInto over the packed V1s and V2s). active is
// caller scratch of len(c.Gates); its contents are overwritten.
//
// Ragged blocks are safe without explicit masking here: an unused lane
// packs all-zero inputs into both vectors, so no gate transitions on
// it and no arc picks up its bit. Callers combining blocks should
// still respect PackPatternPairsInto's tail contract.
//
//ddd:hot
func SensitizedArcsWordsInto(dst, active []uint64, c *circuit.Circuit, init, final []uint64, outIdx int) {
	SensitizedArcsWordsMaskedInto(dst, active, c, init, final, outIdx, ^uint64(0))
}

// SensitizedArcsWordsMaskedInto is SensitizedArcsWordsInto restricted
// to the pattern lanes selected by mask: only those lanes' bits can
// appear in dst. The suspect-pruning kernel uses the restriction to
// trace sensitized arcs exclusively for lanes where the output under
// scrutiny actually failed (the scalar path's b.At(i, j) guard).
//
//ddd:hot
func SensitizedArcsWordsMaskedInto(dst, active []uint64, c *circuit.Circuit, init, final []uint64, outIdx int, mask uint64) {
	for i := range active {
		active[i] = 0
	}
	root := c.Outputs[outIdx]
	rootTrans := (init[root] ^ final[root]) & mask
	if rootTrans == 0 {
		return // no selected lane observes a transition at this output
	}
	active[root] = rootTrans
	// Reverse topological order: every gate that feeds active bits into
	// gid sits later in c.Order, so it has already been processed.
	for i := len(c.Order) - 1; i >= 0; i-- {
		gid := c.Order[i]
		am := active[gid]
		if am == 0 {
			continue
		}
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			continue
		}
		ctrl, hasCtrl := g.Type.Controlling()
		for k, d := range g.Fanin {
			sens := am & (init[d] ^ final[d])
			if sens == 0 {
				continue // no active lane sees a transition on this pin
			}
			if hasCtrl {
				if sens = sideNonControlling(sens, g, k, ctrl, final); sens == 0 {
					continue
				}
			}
			dst[g.InArcs[k]] |= sens
			active[d] |= sens
		}
	}
}

// sideNonControlling narrows the lanes sens of pin k of gate g (whose
// controlling value is ctrl) to those where every other pin settles at
// the non-controlling value in final; a side pin at the controlling
// value blocks the lane.
func sideNonControlling(sens uint64, g *circuit.Gate, k int, ctrl bool, final []uint64) uint64 {
	for j, other := range g.Fanin {
		if j == k {
			continue
		}
		if ctrl {
			sens &^= final[other]
		} else {
			sens &= final[other]
		}
		if sens == 0 {
			break
		}
	}
	return sens
}

// SiteSensitizedWordsInto finds, for a 64-lane block, the lanes in
// which arc site lies on a statically sensitized transition path to
// each primary output: it sets hits[oi] (len(hits) must be
// len(c.Outputs)) so that bit t is set exactly when
// SensitizedArcs(c, tr, oi).Has(site) for lane t's transition tr.
// init and final are the word-parallel settled values of the block's
// two vectors (EvalWordsInto over the packed V1s and V2s). cone is
// c.FanoutConeOrder of the site's sink. reach is caller scratch of
// len(c.Gates); its contents are overwritten.
//
// Where SensitizedArcs walks backward from one output, this sweeps
// forward from the site once for every output. reach[g] holds the
// lanes in which a chain of locally sensitized arcs — driver
// transitions, every other pin non-controlling — runs from the site
// arc to g. The backward walk enters only transitioning gates through
// exactly such arcs, so it reaches the site's sink, and records the
// site, precisely in the lanes where that chain ends at a
// transitioning output.
//
// Ragged blocks need no masking here: an unused lane packs all-zero
// inputs into both vectors, so nothing transitions on it.
//
//ddd:hot
func SiteSensitizedWordsInto(hits, reach []uint64, c *circuit.Circuit, cone []circuit.GateID, init, final []uint64, site circuit.ArcID) {
	for i := range reach {
		reach[i] = 0
	}
	a := &c.Arcs[site]
	sink := &c.Gates[a.To]
	sens := init[a.From] ^ final[a.From]
	if ctrl, hasCtrl := sink.Type.Controlling(); hasCtrl {
		sens = sideNonControlling(sens, sink, a.Pin, ctrl, final)
	}
	reach[a.To] = sens
	// Every gate of the cone past the sink sits later in c.Order than
	// all of its fanins that are in the cone; fanins outside the cone
	// keep reach 0.
	for _, gid := range cone[1:] {
		g := &c.Gates[gid]
		ctrl, hasCtrl := g.Type.Controlling()
		var m uint64
		for k, d := range g.Fanin {
			s := reach[d] & (init[d] ^ final[d])
			if s == 0 {
				continue
			}
			if hasCtrl {
				s = sideNonControlling(s, g, k, ctrl, final)
			}
			m |= s
		}
		reach[gid] = m
	}
	for oi, o := range c.Outputs {
		hits[oi] = reach[o] & (init[o] ^ final[o])
	}
}

// TransitionConeArcsWordsInto accumulates, for primary output outIdx,
// the per-arc hazard-cone masks of a 64-lane block into dst
// (dst[arcID] |= lanes; len(dst) must be len(c.Arcs)), restricted to
// the pattern lanes selected by mask. An arc picks up a lane's bit when
// both endpoints lie in the output's fan-in cone and its driver
// transitions in that lane: the relaxation of sensitization used when
// an output fails without a settled-value transition (a captured
// glitch), which must still have propagated along transitioning
// drivers within the cone. cone is caller scratch of len(c.Gates); its
// contents are overwritten.
//
//ddd:hot
func TransitionConeArcsWordsInto(dst []uint64, cone circuit.GateSet, c *circuit.Circuit, init, final []uint64, outIdx int, mask uint64) {
	if mask == 0 {
		return
	}
	for i := range cone {
		cone[i] = false
	}
	// The fan-in cone is closed under fanin, so one reverse-topological
	// sweep marks it: when gid is in the cone, every fanin is too, and
	// gid is visited before its fanins.
	cone[c.Outputs[outIdx]] = true
	for i := len(c.Order) - 1; i >= 0; i-- {
		gid := c.Order[i]
		if !cone[gid] {
			continue
		}
		for _, d := range c.Gates[gid].Fanin {
			cone[d] = true
		}
	}
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if !cone[a.To] || !cone[a.From] {
			continue
		}
		if m := (init[a.From] ^ final[a.From]) & mask; m != 0 {
			dst[a.ID] |= m
		}
	}
}

// PackPatternPairsInto packs up to 64 pattern pairs into the two
// word-parallel input planes consumed by EvalWordsInto: init holds the
// V1 values, final the V2 values, word i covering input i with bit b
// belonging to pairs[b]. It writes into dstInit and dstFinal, reusing
// their backing arrays when they are large enough — the allocation-free
// form for hot word-parallel loops — and returns the filled slices
// (freshly allocated only when the dsts lack capacity); every element
// is overwritten, so prior contents do not matter.
//
// Ragged-tail contract: with fewer than 64 pairs the high lanes of
// every word stay zero (the all-zeros vector on both sides), so
// aggregating callers must mask results down to TailMask(len(pairs)).
//
//ddd:hot
func PackPatternPairsInto(dstInit, dstFinal []uint64, c *circuit.Circuit, pairs []PatternPair) ([]uint64, []uint64, error) {
	if len(pairs) > 64 {
		return nil, nil, fmt.Errorf("logicsim: %d pattern pairs exceed the 64-per-word limit", len(pairs))
	}
	nIn := len(c.Inputs)
	if cap(dstInit) < nIn {
		dstInit = make([]uint64, nIn)
	}
	if cap(dstFinal) < nIn {
		dstFinal = make([]uint64, nIn)
	}
	init, final := dstInit[:nIn], dstFinal[:nIn]
	for i := 0; i < nIn; i++ {
		init[i], final[i] = 0, 0
	}
	for b, p := range pairs {
		if len(p.V1) != nIn || len(p.V2) != nIn {
			return nil, nil, fmt.Errorf("logicsim: pattern pair %d has %d->%d values for %d inputs",
				b, len(p.V1), len(p.V2), nIn)
		}
		bit := uint64(1) << uint(b)
		for i, v := range p.V1 {
			if v {
				init[i] |= bit
			}
		}
		for i, v := range p.V2 {
			if v {
				final[i] |= bit
			}
		}
	}
	return init, final, nil
}
