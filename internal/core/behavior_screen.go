package core

import (
	"math"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// Word-parallel prescreen for behavior simulation (DESIGN.md §17).
//
// SimulateBehavior runs the tsim kernel once per pattern.
// Most patterns of a broad (production) test set neither excite the
// defect nor launch any transition that could arrive after the capture
// clock, so their behavior column is provably all-zero — the captured
// values equal the settled ones. The screen proves that per pattern,
// 64 patterns at a time, and SimulateBehavior skips the tsim run for
// every screened lane. tsim stays the oracle for the rest.
//
// Soundness argument (tsim semantics: transport delays, events — the
// steps of a gate's waveform — with time > Horizon discarded, capture
// after all events at t <= clk):
//
//  1. Every committed event at a gate sits on a causal chain of events
//     back to a primary input that changes at t = 0; the event's time
//     is the sum of the arc delays along the chain's path. dUpper —
//     the die's base delays with each defect's extra added onto its
//     arc, clamped at >= 0 — bounds every arc delay the chain saw, for
//     either defect sign. So if no input reaches any sink within more
//     than clk under dUpper (the global static bound), no pattern can
//     capture anything but its settled values, and the whole set is
//     safe with no per-pattern work at all — the typical die, whose
//     clock sits above its own longest path even through a small
//     defect.
//  2. Otherwise the screen refines per lane. actAll — the
//     hazard-conservative activity sweep seeded with every changed
//     input — is a lane-wise superset of the event-capable gates:
//     propagation through a gate is pruned only when a side pin
//     provably never moves and settles at the controlling value, which
//     pins the gate's output for the whole run. A chain visits only
//     event-capable gates.
//  3. The lane-wise timed bound arr[g] is the longest dUpper-delay
//     path from any input toggling in that lane to g that runs
//     entirely through lane-active gates; a chain's path is exactly
//     such a path, so every event at g in that lane occurs at
//     t <= arr[g]. If no output o has arr[o] > clk in a lane, every
//     event at every output commits at t <= clk, the capture equals
//     the settled value, and the behavior column is exactly zero —
//     bit-identical to running tsim.
//
// The differential tests pin the screened SimulateBehavior against the
// retained scalar oracle over random circuits, dies and defect sizes.

// screenDefect is one extra-delay overlay the prescreen accounts for.
type screenDefect struct {
	arc   circuit.ArcID
	extra float64
}

// screenBehavior returns one skip word per 64 patterns (bit j%64 of
// word j/64 set when pattern j's tsim run can be skipped because its
// behavior column is provably all-zero) plus the number of skipped
// patterns. delays are the die's base (defect-free) arc delays;
// defects lists the extra-delay overlays the timed runs will apply.
func screenBehavior(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, defects []screenDefect, clk float64) (skip []uint64, skipped int) {
	nGates, nIn := len(c.Gates), len(c.Inputs)
	skip = make([]uint64, (len(patterns)+63)/64)

	// Per-arc delay upper bounds: base delays with defect extras
	// clamped at >= 0, sound for negative sizes too.
	dUpper := delays
	if len(defects) > 0 {
		dUpper = make([]float64, len(delays))
		copy(dUpper, delays)
		for _, df := range defects {
			if df.extra > 0 {
				dUpper[df.arc] += df.extra
			}
		}
	}

	// Global static bound (soundness point 1): when even the longest
	// input-to-sink path under dUpper meets the clock, every pattern is
	// safe and no per-block analysis runs.
	d2o := make([]float64, nGates)
	longestToOutputInto(d2o, c, dUpper)
	worst := 0.0
	for _, x := range c.Inputs {
		if d2o[x] > worst {
			worst = d2o[x]
		}
	}
	if worst <= clk {
		for w := range skip {
			n := min(64, len(patterns)-w*64)
			skip[w] = logicsim.TailMask(n)
			skipped += n
		}
		return skip, skipped
	}

	initIn := make([]uint64, nIn)
	finalIn := make([]uint64, nIn)
	seeds := make([]uint64, nIn)
	finalVals := make([]uint64, nGates)
	actAll := make([]uint64, nGates)
	// arr holds the 64 lane-wise arrival bounds per gate, row-major.
	arr := make([]float64, nGates*64)
	ninf := math.Inf(-1)

	for start := 0; start < len(patterns); start += 64 {
		block := patterns[start:min(start+64, len(patterns))]
		w := start >> 6
		if _, _, err := logicsim.PackPatternPairsInto(initIn, finalIn, c, block); err != nil {
			// A width-mismatched pattern is a programmer error, exactly as
			// it is for the timed path's Eval panic.
			panic(err)
		}
		finalVals = logicsim.EvalWordsInto(finalVals, c, finalIn)
		for i := range seeds {
			seeds[i] = initIn[i] ^ finalIn[i]
		}
		activitySweepInto(actAll, c, seeds, finalVals)
		unsafe := lateArrivalLanes(arr, c, actAll, seeds, dUpper, clk, ninf)
		tail := logicsim.TailMask(len(block))
		skip[w] = tail &^ unsafe
		skipped += bits.OnesCount64(skip[w])
	}
	return skip, skipped
}

// lateArrivalLanes propagates, per lane, an upper bound on the latest
// event time at each gate — the longest dUpper path from a toggling
// input running through lane-active gates (soundness point 3) — and
// returns the lanes where some primary output's bound exceeds clk.
// arr is nGates*64 scratch, overwritten.
//
//ddd:hot
func lateArrivalLanes(arr []float64, c *circuit.Circuit, actAll, seeds []uint64, dUpper []float64, clk, ninf float64) uint64 {
	for i, x := range c.Inputs {
		lanes := arr[int(x)*64 : int(x)*64+64]
		s := seeds[i]
		for l := range lanes {
			if s>>uint(l)&1 == 1 {
				lanes[l] = 0 // the input's transition launches at t = 0
			} else {
				lanes[l] = ninf // no event at this input in this lane
			}
		}
	}
	for _, gid := range c.Order {
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			continue
		}
		lanes := arr[int(gid)*64 : int(gid)*64+64]
		for l := range lanes {
			lanes[l] = ninf
		}
		am := actAll[gid]
		if am == 0 {
			continue // no lane has events here; bounds stay -inf
		}
		for k, f := range g.Fanin {
			d := dUpper[g.InArcs[k]]
			src := arr[int(f)*64 : int(f)*64+64]
			for l, v := range src {
				if cand := v + d; cand > lanes[l] {
					lanes[l] = cand
				}
			}
		}
		// Lanes where the gate provably never moves carry no events
		// regardless of what the fanin bounds say.
		for l := range lanes {
			if am>>uint(l)&1 == 0 {
				lanes[l] = ninf
			}
		}
	}
	var unsafe uint64
	for _, o := range c.Outputs {
		lanes := arr[int(o)*64 : int(o)*64+64]
		for l, v := range lanes {
			if v > clk {
				unsafe |= 1 << uint(l)
			}
		}
	}
	return unsafe
}

// activitySweepInto computes, per lane, a superset of the gates whose
// value can change at any time during the timed run: act[g] gets a
// lane's bit when some fanin is active in that lane and no side pin of
// the gate provably rests at the controlling value for the whole run.
// seeds (per input index) start the sweep; finalVals are the settled
// V2 word values — a lane-static pin holds its settled value
// throughout. act is overwritten; len(act) = len(c.Gates).
//
//ddd:hot
func activitySweepInto(act []uint64, c *circuit.Circuit, seeds, finalVals []uint64) {
	for i := range act {
		act[i] = 0
	}
	for i, x := range c.Inputs {
		act[x] = seeds[i]
	}
	for _, gid := range c.Order {
		g := &c.Gates[gid]
		if g.Type == circuit.Input {
			continue
		}
		ctrl, hasCtrl := g.Type.Controlling()
		var out uint64
		for k, d := range g.Fanin {
			a := act[d]
			if a == 0 {
				continue
			}
			if hasCtrl {
				for j, other := range g.Fanin {
					if j == k {
						continue
					}
					// Lanes where the side pin never moves (no activity)
					// and settles at the controlling value pass no events
					// from pin k.
					if ctrl {
						a &^= ^act[other] & finalVals[other]
					} else {
						a &^= ^act[other] &^ finalVals[other]
					}
					if a == 0 {
						break
					}
				}
			}
			out |= a
		}
		act[gid] = out
	}
}

// longestToOutputInto fills dst[g] with the longest delay-sum path
// from gate g's output to any sink of the circuit under the given
// per-arc delays. dst is overwritten; len(dst) = len(c.Gates).
//
//ddd:hot
func longestToOutputInto(dst []float64, c *circuit.Circuit, delays []float64) {
	for i := range dst {
		dst[i] = 0
	}
	// Reverse topological order: dst[gid] is final before its fanins
	// read it, because all of gid's fanouts were processed earlier.
	for i := len(c.Order) - 1; i >= 0; i-- {
		gid := c.Order[i]
		g := &c.Gates[gid]
		dOut := dst[gid]
		for k, f := range g.Fanin {
			if cand := delays[g.InArcs[k]] + dOut; cand > dst[f] {
				dst[f] = cand
			}
		}
	}
}
