package eval

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/timing"
)

// The precomputed-dictionary workflow: the paper's effect-cause
// framing assumes a fault dictionary computed once for a fixed pattern
// set and stored ("assuming that computing and storing logic
// information in fault dictionary is not an issue"). This file builds
// that object — a global diagnostic pattern set, the arcs it
// sensitizes as the fault universe, and one dictionary over them — and
// measures diagnosis against it, in contrast to the per-case targeted
// patterns of RunCircuit. The contrast quantifies the paper's remark
// that diagnosis accuracy depends on the pattern set.

// StaticDictionary bundles a precomputed dictionary with its stimuli.
type StaticDictionary struct {
	C        *circuit.Circuit
	Model    *timing.Model
	Patterns []logicsim.PatternPair
	Clk      float64
	Dict     *core.Dictionary
}

// GlobalPatternSet builds a circuit-wide diagnostic pattern set: it
// first tries the structurally longest paths, then sweeps fault sites
// spread uniformly across the arc space and generates per-site
// diagnostic tests (the machinery proven by the per-case flow) until
// the budget is filled. Tests are de-duplicated by pattern pair.
func GlobalPatternSet(c *circuit.Circuit, m *timing.Model, maxPatterns int, seed uint64) []atpg.PathTestResult {
	r := rng.New(seed)
	tests := atpg.PathSetTests(c, path.KLongest(c, m.Nominal, 4*maxPatterns), true, r)
	if len(tests) > maxPatterns {
		return tests[:maxPatterns]
	}
	seen := make(map[string]bool, len(tests))
	for _, tc := range tests {
		seen[tc.Pair.String()] = true
	}
	nArcs := len(c.Arcs)
	for _, site := range sweepOrder(nArcs, int(float64(nArcs)*0.618)|1) {
		if len(tests) >= maxPatterns {
			break
		}
		if c.Gates[c.Arcs[site].To].Type == circuit.Output {
			continue
		}
		perSite := atpg.DiagnosticPatterns(c, m.Nominal, circuit.ArcID(site), 2,
			rng.New(rng.DeriveN(seed, 0x9107, uint64(site))))
		for _, tc := range perSite {
			if k := tc.Pair.String(); !seen[k] {
				seen[k] = true
				tests = append(tests, tc)
				if len(tests) >= maxPatterns {
					break
				}
			}
		}
	}
	return tests
}

// sweepOrder is the order in which GlobalPatternSet visits the n arc
// sites: a deterministic walk of the given stride from site 0, which
// spreads the visits across the arc space. A stride that is not
// coprime with n closes its cycle after n/gcd(n, stride) sites; each
// time the walk would come back to a visited site it steps to the next
// site instead, which opens the next residue class mod gcd. The order
// is a permutation of 0..n-1.
func sweepOrder(n, stride int) []int {
	order := make([]int, 0, n)
	seen := make([]bool, n)
	site := 0
	for len(order) < n {
		next := (site + stride) % n
		if seen[next] {
			next = (site + 1) % n
		}
		seen[next] = true
		order = append(order, next)
		site = next
	}
	return order
}

// prepareStatic runs everything of BuildStatic up to (but excluding)
// the dictionary build, selecting clk with the engine named by
// cfg.Engine. The returned case carries the global pattern set, the
// cut-off period and the suspect universe; the engine acceptance test
// builds dictionaries from it under several engines over identical
// stimuli.
func prepareStatic(cfg Config, maxSuspects int) (*Pipeline, *Case, error) {
	p, err := newNamedPipeline(cfg)
	if err != nil {
		return nil, nil, err
	}
	c := p.C
	tests := GlobalPatternSet(c, p.Model, cfg.MaxPatterns, rng.Derive(cfg.Seed, 0x57a7))
	if len(tests) == 0 {
		return nil, nil, fmt.Errorf("eval: no global patterns for %s", cfg.Circuit)
	}
	pats := make([]logicsim.PatternPair, len(tests))
	paths := make([][]circuit.ArcID, len(tests))
	for i, tc := range tests {
		pats[i] = tc.Pair
		paths[i] = tc.Path.Arcs
	}
	dists, err := p.Engine.TimingLengths(context.Background(), paths, cfg.ClkSamples, rng.Derive(cfg.Seed, 0x57a8), 0)
	if err != nil {
		return nil, nil, err
	}
	tls := make([]float64, len(tests))
	for i, tl := range dists {
		tls[i] = tl.Quantile(cfg.ClkQuantile)
	}
	// One clk must serve every site this dictionary covers. Anchoring
	// it to the longest tested path would give every shorter site more
	// slack than a small defect can bridge; the median targeted path
	// is the sensitivity/selectivity compromise — patterns targeting
	// longer paths then fail even defect-free, which M_crt absorbs by
	// construction.
	sort.Float64s(tls)
	clk := tls[len(tls)/2]

	// Fault universe: arcs sensitized by the pattern set, weighted by
	// how many patterns sensitize them.
	count := make(map[circuit.ArcID]int)
	for _, pat := range pats {
		tr := logicsim.SimulatePair(c, pat)
		for oi := range c.Outputs {
			for _, aid := range logicsim.SensitizedArcs(c, tr, oi).IDs() {
				if c.Gates[c.Arcs[aid].To].Type != circuit.Output {
					count[aid]++
				}
			}
		}
	}
	if len(count) == 0 {
		return nil, nil, fmt.Errorf("eval: pattern set sensitizes nothing")
	}
	suspects := make([]circuit.ArcID, 0, len(count))
	for a := range count {
		suspects = append(suspects, a)
	}
	// Most-sensitized first, deterministic ties, cap, then restore ID
	// order for reproducible dictionaries.
	sortByCount(suspects, count)
	if maxSuspects > 0 && len(suspects) > maxSuspects {
		suspects = suspects[:maxSuspects]
	}
	sortArcs(suspects)
	return p, &Case{Pats: pats, Clk: clk, Suspects: suspects}, nil
}

// buildStatic is prepareStatic plus the dictionary build.
func buildStatic(cfg Config, maxSuspects int) (*Pipeline, *Case, error) {
	p, sc, err := prepareStatic(cfg, maxSuspects)
	if err != nil {
		return nil, nil, err
	}
	if err := p.Dictionary(context.Background(), sc, rng.Derive(cfg.Seed, 0x57a9)); err != nil {
		return nil, nil, err
	}
	return p, sc, nil
}

// BuildStatic precomputes the dictionary for a global pattern set: the
// fault universe is every logic arc the pattern set statically
// sensitizes toward any output (Sen(TP)), capped at maxSuspects by
// dropping the arcs sensitized by the fewest patterns first. The
// cut-off period and the dictionary both come from the engine named by
// cfg.Engine.
func BuildStatic(cfg Config, maxSuspects int) (*StaticDictionary, error) {
	p, sc, err := buildStatic(cfg, maxSuspects)
	if err != nil {
		return nil, err
	}
	return &StaticDictionary{C: p.C, Model: p.Model, Patterns: sc.Pats, Clk: sc.Clk, Dict: sc.Dict}, nil
}

func sortByCount(arcs []circuit.ArcID, count map[circuit.ArcID]int) {
	sort.Slice(arcs, func(i, j int) bool {
		if count[arcs[i]] != count[arcs[j]] {
			return count[arcs[i]] > count[arcs[j]]
		}
		return arcs[i] < arcs[j]
	})
}

func sortArcs(arcs []circuit.ArcID) {
	sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
}

// RunPrecomputed diagnoses cfg.N random-defect dies against one
// precomputed dictionary (built once, reused for every die — the
// classic effect-cause flow). Every case shares the dictionary's
// patterns, clk and suspect universe.
func RunPrecomputed(cfg Config, maxSuspects int) (*CircuitResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("eval: N = %d", cfg.N)
	}
	p, sc, err := buildStatic(cfg, maxSuspects)
	if err != nil {
		return nil, err
	}
	res := &CircuitResult{Config: p.Cfg, Stats: p.C.Stats(), Timings: p.Stages}
	for i := 0; i < cfg.N; i++ {
		cs := staticCase(p, sc, i)
		if cs.Escaped = !cs.B.AnyFailure(); !cs.Escaped {
			p.Rank(cs)
		}
		res.Cases = append(res.Cases, cs.result())
	}
	return res, nil
}

// staticCase is die i of the precomputed-dictionary experiment — its
// own derivation, shared by RunPrecomputed and the engine acceptance
// test so their dies line up — observed under the patterns and clk of sc, whose
// suspects and dictionary it shares.
func staticCase(p *Pipeline, sc *Case, i int) *Case {
	seed := rng.DeriveN(p.Cfg.Seed, 0x57ca, uint64(i))
	cs := *sc
	cs.Index, cs.Seed = i, seed
	cs.Inst = p.Model.SampleInstanceSeeded(p.Cfg.Seed, uint64(3_000_000+i))
	cs.Truth = defect.MultiDefect{p.Inj.Sample(rng.New(seed))}
	p.Observe(&cs)
	return &cs
}
