package atpg

import (
	"math/rand/v2"
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
	for trial := 0; trial < tries && len(out) < want; trial++ {
		pair := biasedPair(c, inCone, r)
		tr := logicsim.SimulatePair(c, pair)
		if tr.Init[a.From] == tr.Final[a.From] {
			continue // site driver does not even transition
		}
		for _, oi := range observing {
			if o := c.Outputs[oi]; tr.Init[o] == tr.Final[o] {
				continue
			}
			arcs := logicsim.SensitizedArcs(c, tr, oi)
			if !arcs.Has(site) {
				continue
			}
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
			out = append(out, PathTestResult{Path: p, Pair: pair, Robust: false})
			if len(out) >= want {
				break
			}
		}
	}
	return out
}

// biasedPair draws a two-vector pattern biased for witness discovery:
// launch-cone inputs flip with probability 1/2, the rest with 1/10.
func biasedPair(c *circuit.Circuit, inCone []bool, r *rand.Rand) logicsim.PatternPair {
	n := len(c.Inputs)
	v1 := make(logicsim.Vector, n)
	v2 := make(logicsim.Vector, n)
	for i := 0; i < n; i++ {
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
	return logicsim.PatternPair{V1: v1, V2: v2}
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
// path first.
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
