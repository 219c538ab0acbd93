package timing

import "sync/atomic"

// Blocked Monte-Carlo kernels: each traversal samples and propagates a
// block of up to `block` circuit instances at once in the Scratch's
// struct-of-arrays layout. Blocking amortizes the topological walk
// (gate/arc metadata is read once per block instead of once per
// sample) and turns the inner loops into short contiguous streams.
//
// Bit-exactness contract: every lane evaluates exactly the
// floating-point expressions of the scalar path — sampling funnels
// through Model.sampleArc with the per-sample rng.NewDerived draw
// order, propagation performs the same additions and strictly-greater
// comparisons per pin, and the backtrace replays the same tie-breaks —
// so blocked and scalar results are bit-identical, whichever lanes and
// blocks the samples fall into.

// sampleBlock draws instances s0..s0+nb-1 of the deterministic
// sequence rooted at seed into sc: lane b's delays are generated into
// its contiguous row (matching the RNG's one-instance-at-a-time draw
// order), then transposed into the SoA delays buffer.
//
//ddd:hot
func (m *Model) sampleBlock(sc *Scratch, seed uint64, s0, nb int) {
	nArcs := sc.nArcs
	for b := 0; b < nb; b++ {
		r := sc.stream.ResetDerived(seed, uint64(s0+b))
		row := sc.rows[b*nArcs : (b+1)*nArcs]
		g := r.NormFloat64()
		for i, nom := range m.Nominal {
			row[i] = m.sampleArc(nom, g, r.NormFloat64())
		}
	}
	// Transpose rows -> SoA: sequential writes, nb strided read streams.
	for i := 0; i < nArcs; i++ {
		dst := sc.delays[i*block : i*block+nb]
		for b := range dst {
			dst[b] = sc.rows[b*nArcs+i]
		}
	}
}

// propagateBlock runs static timing on the nb sampled lanes in one
// topological walk, filling sc.arr. Per gate and pin it performs, per
// lane, the identical add-then-strictly-greater-max of
// Model.ArrivalTimes.
//
//ddd:hot
func (m *Model) propagateBlock(sc *Scratch, nb int) {
	arr, delays := sc.arr, sc.delays
	for _, gid := range m.C.Order {
		g := &m.C.Gates[gid]
		out := arr[int(gid)*block : int(gid)*block+nb]
		if len(g.Fanin) == 0 {
			for b := range out {
				out[b] = 0
			}
			continue
		}
		for k, fi := range g.Fanin {
			src := arr[int(fi)*block : int(fi)*block+nb]
			d := delays[int(g.InArcs[k])*block : int(g.InArcs[k])*block+nb]
			if k == 0 {
				for b := range out {
					out[b] = src[b] + d[b]
				}
				continue
			}
			for b := range out {
				if t := src[b] + d[b]; t > out[b] {
					out[b] = t
				}
			}
		}
	}
}

// worstOutput returns, for lane b, the output gate realizing the
// circuit delay, with the scalar path's deterministic tie-break
// (first output wins on equality).
func (m *Model) worstOutput(sc *Scratch, b int) int {
	worst := int(m.C.Outputs[0])
	for _, o := range m.C.Outputs[1:] {
		if sc.arr[int(o)*block+b] > sc.arr[worst*block+b] {
			worst = int(o)
		}
	}
	return worst
}

// backtraceBlock walks the critical path of each lane backward from
// its latest output, adding one to cnt per traversed arc — the blocked
// form of the MC.Criticality inner loop, with identical pin selection
// (strictly-greater, first pin wins ties). cnt is shared by every
// worker of the call.
//
//ddd:hot
func (m *Model) backtraceBlock(sc *Scratch, nb int, cnt []atomic.Int64) {
	arr, delays := sc.arr, sc.delays
	for b := 0; b < nb; b++ {
		g := m.worstOutput(sc, b)
		for len(m.C.Gates[g].Fanin) > 0 {
			gate := &m.C.Gates[g]
			bestPin := 0
			bestT := arr[int(gate.Fanin[0])*block+b] + delays[int(gate.InArcs[0])*block+b]
			for k := 1; k < len(gate.Fanin); k++ {
				if t := arr[int(gate.Fanin[k])*block+b] + delays[int(gate.InArcs[k])*block+b]; t > bestT {
					bestT = t
					bestPin = k
				}
			}
			cnt[gate.InArcs[bestPin]].Add(1)
			g = int(gate.Fanin[bestPin])
		}
	}
}
