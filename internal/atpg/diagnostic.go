package atpg

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
)

// SensitizedPathsThrough discovers testable paths through arc site by
// random two-vector simulation: each random pair is simulated, the
// statically sensitized arcs toward each transitioning output are
// traced, and when the site lies on a sensitized path the path is
// extracted together with the pair that witnesses it. The witnessing
// pair is verified with CheckPathTest (non-robust) before being kept.
//
// This complements the structural K-longest selector: in heavily
// reconvergent circuits most of the structurally longest paths are
// false, and random witnesses recover sensitizable paths the
// justification search alone would have to discover by luck.
//
// The trials run 64 to a word: a block's pairs are drawn in trial
// order, simulated at once, and screened by
// logicsim.SiteSensitizedWordsInto; only the (trial, output) hits it
// reports are traced pair by pair, in trial order and then output
// order, so the result is the one a trial-at-a-time loop returns. The
// search may stop partway through a block, after r has drawn the rest
// of it, so r's state after the call is unspecified.
func SensitizedPathsThrough(c *circuit.Circuit, site circuit.ArcID, want, tries int, r *rand.Rand) []PathTestResult {
	var out []PathTestResult
	seenPath := make(map[string]bool)
	a := c.Arcs[site]
	// Bias: inputs in the launch cone (fan-in of the site's driver)
	// flip freely so the site sees transitions; other inputs mostly
	// stay stable, which keeps side inputs quiet and makes static
	// propagation through the site's fan-out far more likely than
	// under uniformly random pairs.
	launchCone := c.FaninCone(a.From)
	inCone := make([]bool, len(c.Inputs))
	for i, g := range c.Inputs {
		inCone[i] = launchCone.Has(g)
	}
	// Only outputs in the site's fan-out cone can have it on a
	// sensitized path, and only transitioning ones have any.
	observing := c.OutputsReachedFrom(a.To)
	cone := c.FanoutConeOrder(a.To)
	// One block of pairs, its planes and one transition serve every
	// trial; a kept witness gets its own copy of the pair.
	nIn := len(c.Inputs)
	vals := make(logicsim.Vector, 2*64*nIn)
	pairs := make([]logicsim.PatternPair, 64)
	for i := range pairs {
		v := vals[2*i*nIn : 2*(i+1)*nIn : 2*(i+1)*nIn]
		pairs[i] = logicsim.PatternPair{V1: v[:nIn:nIn], V2: v[nIn:]}
	}
	inInit, inFinal := make([]uint64, nIn), make([]uint64, nIn)
	var init, final []uint64
	reach := make([]uint64, len(c.Gates))
	hits := make([]uint64, len(c.Outputs))
	var tr logicsim.Transition
	for base := 0; base < tries && len(out) < want; base += 64 {
		block := pairs[:min(64, tries-base)]
		for _, pair := range block {
			biasedPair(pair, inCone, r)
		}
		if _, _, err := logicsim.PackPatternPairsInto(inInit, inFinal, c, block); err != nil {
			panic(err) // the pairs are built for c's inputs
		}
		init = logicsim.EvalWordsInto(init, c, inInit)
		final = logicsim.EvalWordsInto(final, c, inFinal)
		logicsim.SiteSensitizedWordsInto(hits, reach, c, cone, init, final, site)
		var lanes uint64
		for _, oi := range observing {
			lanes |= hits[oi]
		}
		for lanes &= logicsim.TailMask(len(block)); lanes != 0; lanes &= lanes - 1 {
			t := bits.TrailingZeros64(lanes)
			pair := block[t]
			tr.Init = logicsim.EvalInto(tr.Init, c, pair.V1)
			tr.Final = logicsim.EvalInto(tr.Final, c, pair.V2)
			for _, oi := range observing {
				if hits[oi]>>uint(t)&1 == 0 {
					continue
				}
				arcs := logicsim.SensitizedArcs(c, tr, oi)
				p, ok := extractPathThrough(c, arcs, site, oi)
				if !ok {
					continue
				}
				key := pathKey(p)
				if seenPath[key] {
					continue
				}
				if CheckPathTest(c, p, pair, false) != nil {
					continue // e.g. XOR side instability: not a test under our criterion
				}
				seenPath[key] = true
				kept := logicsim.PatternPair{V1: slices.Clone(pair.V1), V2: slices.Clone(pair.V2)}
				out = append(out, PathTestResult{Path: p, Pair: kept, Robust: false})
				if len(out) >= want {
					return out
				}
			}
		}
	}
	return out
}

// biasedPair draws a two-vector pattern biased for witness discovery
// into pair: launch-cone inputs flip with probability 1/2, the rest
// with 1/10.
func biasedPair(pair logicsim.PatternPair, inCone []bool, r *rand.Rand) {
	v1, v2 := pair.V1, pair.V2
	for i := range v1 {
		v1[i] = r.IntN(2) == 1
		v2[i] = v1[i]
		if inCone[i] {
			if r.IntN(2) == 0 {
				v2[i] = !v1[i]
			}
		} else if r.IntN(10) == 0 {
			v2[i] = !v1[i]
		}
	}
}

// extractPathThrough builds one input-to-output path through site using
// only sensitized arcs: backward from the site's driver to an input,
// forward from the site's sink to output index oi.
func extractPathThrough(c *circuit.Circuit, arcs circuit.ArcSet, site circuit.ArcID, oi int) (path.Path, bool) {
	var rev []circuit.ArcID
	g := c.Arcs[site].From
	for c.Gates[g].Type != circuit.Input {
		found := false
		for k, fi := range c.Gates[g].Fanin {
			aid := c.Gates[g].InArcs[k]
			if arcs.Has(aid) {
				rev = append(rev, aid)
				g = fi
				found = true
				break
			}
		}
		if !found {
			return path.Path{}, false
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	fwd := append(rev, site)

	out := c.Outputs[oi]
	g = c.Arcs[site].To
	for g != out {
		found := false
		for _, ho := range c.Gates[g].Fanout {
			h := &c.Gates[ho]
			for k, fi := range h.Fanin {
				if fi != g || !arcs.Has(h.InArcs[k]) {
					continue
				}
				fwd = append(fwd, h.InArcs[k])
				g = ho
				found = true
				break
			}
			if found {
				break
			}
		}
		if !found {
			return path.Path{}, false
		}
	}
	return path.Path{Arcs: fwd}, true
}

func pathKey(p path.Path) string {
	b := make([]byte, 0, len(p.Arcs)*3)
	for _, a := range p.Arcs {
		b = append(b, byte(a), byte(a>>8), byte(a>>16))
	}
	return string(b)
}

// DiagnosticPatterns implements the paper's pattern-generation
// methodology for diagnosis (Section H-4): select the longest paths
// through the fault site, generate robust or non-robust tests for them
// without considering timing, and top the set up with random-witness
// tests when the structural candidates are largely false paths. At
// most maxPatterns distinct pattern pairs are returned, longest target
// path first. r's state after the call is unspecified: the witness
// search may draw past the last trial it uses.
func DiagnosticPatterns(c *circuit.Circuit, nominal []float64, site circuit.ArcID, maxPatterns int, r *rand.Rand) []PathTestResult {
	pool := 6 * maxPatterns
	if pool < 100 {
		pool = 100
	}
	structural := path.KLongestThrough(c, nominal, site, pool)
	tests := PathSetTests(c, structural, true, r)
	if len(tests) > maxPatterns {
		tests = tests[:maxPatterns]
	}
	if len(tests) < maxPatterns {
		extra := SensitizedPathsThrough(c, site, maxPatterns-len(tests), 60*maxPatterns, r)
		seen := make(map[string]bool, len(tests))
		for _, tc := range tests {
			seen[tc.Pair.String()] = true
		}
		for _, tc := range extra {
			if k := tc.Pair.String(); !seen[k] {
				seen[k] = true
				tests = append(tests, tc)
			}
		}
	}
	// Nominal lengths for witness paths were not filled in; compute
	// them so sorting is meaningful.
	for i := range tests {
		if tests[i].Path.Nominal == 0 {
			sum := 0.0
			for _, a := range tests[i].Path.Arcs {
				sum += nominal[a]
			}
			tests[i].Path.Nominal = sum
		}
	}
	sort.SliceStable(tests, func(i, j int) bool { return tests[i].Path.Nominal > tests[j].Path.Nominal })
	if len(tests) > maxPatterns {
		tests = tests[:maxPatterns]
	}
	return tests
}
