// Package synth deterministically generates gate-level benchmark
// circuits whose size statistics (primary inputs/outputs, flip-flop
// count, gate count, logic depth) match the ISCAS'89 circuits used in
// the paper's evaluation. The original ISCAS netlists are not
// redistributable here; diagnosis accuracy depends on topology
// statistics (cone overlap, reconvergent fanout, path-length spread)
// rather than the exact boolean functions, so a statistics-matched
// synthetic netlist exercises the identical code paths. Real .bench
// netlists can be substituted at any time via package benchfmt.
//
// Generation is level-directed: each gate is assigned a target logic
// level, takes its first fan-in from the level directly below (which
// pins the circuit's depth) and its remaining fan-ins uniformly from
// any lower level (which creates the heavy reconvergence typical of
// the s-series circuits). Flip-flops make the netlist sequential; the
// returned circuit is scan-converted, matching the full-scan delay-test
// setup assumed by the paper.
package synth

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// Profile describes the target shape of a generated circuit.
type Profile struct {
	Name  string
	PI    int // primary inputs
	PO    int // primary outputs
	DFF   int // flip-flops (become PPI/PPO pairs after scan conversion)
	Gates int // combinational logic gates
	Depth int // target logic depth (levels of gates)
}

// Profiles lists the ISCAS'89 circuits of Table I with their published
// size statistics, plus small profiles used by tests and examples.
var Profiles = []Profile{
	{Name: "s1196", PI: 14, PO: 14, DFF: 18, Gates: 529, Depth: 24},
	{Name: "s1238", PI: 14, PO: 14, DFF: 18, Gates: 508, Depth: 22},
	{Name: "s1423", PI: 17, PO: 5, DFF: 74, Gates: 657, Depth: 59},
	{Name: "s1488", PI: 8, PO: 19, DFF: 6, Gates: 653, Depth: 17},
	{Name: "s5378", PI: 35, PO: 49, DFF: 179, Gates: 2779, Depth: 25},
	{Name: "s9234", PI: 36, PO: 39, DFF: 211, Gates: 5597, Depth: 58},
	{Name: "s13207", PI: 62, PO: 152, DFF: 638, Gates: 7951, Depth: 59},
	{Name: "s15850", PI: 77, PO: 150, DFF: 534, Gates: 9772, Depth: 82},
	// ISCAS'85 combinational circuits (no flip-flops), matching the
	// published size statistics; useful for purely combinational
	// studies and for exercising circuits with very different aspect
	// ratios (c6288 is the famously deep multiplier).
	{Name: "c432", PI: 36, PO: 7, DFF: 0, Gates: 160, Depth: 17},
	{Name: "c499", PI: 41, PO: 32, DFF: 0, Gates: 202, Depth: 11},
	{Name: "c880", PI: 60, PO: 26, DFF: 0, Gates: 383, Depth: 24},
	{Name: "c1355", PI: 41, PO: 32, DFF: 0, Gates: 546, Depth: 24},
	{Name: "c1908", PI: 33, PO: 25, DFF: 0, Gates: 880, Depth: 40},
	{Name: "c2670", PI: 233, PO: 140, DFF: 0, Gates: 1193, Depth: 32},
	{Name: "c3540", PI: 50, PO: 22, DFF: 0, Gates: 1669, Depth: 47},
	{Name: "c5315", PI: 178, PO: 123, DFF: 0, Gates: 2307, Depth: 49},
	{Name: "c6288", PI: 32, PO: 32, DFF: 0, Gates: 2416, Depth: 124},
	{Name: "c7552", PI: 207, PO: 108, DFF: 0, Gates: 3512, Depth: 43},
	// Small profiles for fast tests, examples, and CI-scale benches.
	{Name: "mini", PI: 6, PO: 4, DFF: 0, Gates: 40, Depth: 8},
	{Name: "small", PI: 10, PO: 8, DFF: 4, Gates: 120, Depth: 12},
	{Name: "medium", PI: 16, PO: 12, DFF: 12, Gates: 420, Depth: 18},
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// genGate is the pre-build representation of a logic gate.
type genGate struct {
	typ   circuit.CellType
	fanin []int // signal indices
	level int
}

type generator struct {
	r       *rand.Rand
	p       Profile
	levels  []int     // signal index -> level
	probs   []float64 // signal index -> estimated P(value = 1) under random inputs
	buckets [][]int   // level -> signal indices
	gates   []genGate
	ps      []float64 // emitGates' fan-in probabilities, reused per gate
}

// Generate builds a circuit matching profile p, deterministically from
// seed, and returns it scan-converted and validated.
func Generate(p Profile, seed uint64) (*circuit.Circuit, error) {
	if p.PI < 1 || p.PO < 1 || p.Gates < p.PO {
		return nil, fmt.Errorf("synth: infeasible profile %+v", p)
	}
	depth := p.Depth
	if depth < 1 {
		depth = 1
	}
	if depth > p.Gates {
		depth = p.Gates
	}
	g := &generator{
		r:       rng.New(rng.DeriveN(seed, hashName(p.Name))),
		p:       p,
		buckets: make([][]int, depth+1),
	}

	// Level-0 signals: PIs then DFF outputs.
	for range p.PI + p.DFF {
		g.addSignal(0, 0.5)
	}

	g.emitGates(depth)
	pos, ffData := g.chooseSinks()
	g.repairDangling(pos, ffData)

	return g.build(pos, ffData)
}

// GenerateNamed generates the named profile.
func GenerateNamed(name string, seed uint64) (*circuit.Circuit, error) {
	p, ok := ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("synth: unknown profile %q", name)
	}
	return Generate(p, seed)
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (g *generator) addSignal(level int, p1 float64) {
	g.buckets[level] = append(g.buckets[level], len(g.levels))
	g.levels = append(g.levels, level)
	g.probs = append(g.probs, p1)
}

// gateType draws a cell family: multi-input (exact type chosen later,
// balanced against the fan-in probabilities), inverter, buffer or XOR.
func (g *generator) gateType() circuit.CellType {
	switch v := g.r.Float64(); {
	case v < 0.73:
		return circuit.Nand // placeholder for "multi-input, type chosen by balance"
	case v < 0.85:
		return circuit.Not
	case v < 0.90:
		return circuit.Buf
	case v < 0.97:
		return circuit.Xor
	default:
		return circuit.Xnor
	}
}

// typeP1 estimates P(output = 1) for a cell over independent inputs
// with the given one-probabilities.
func typeP1(t circuit.CellType, ps []float64) float64 {
	switch t {
	case circuit.And, circuit.Nand:
		p := 1.0
		for _, q := range ps {
			p *= q
		}
		if t == circuit.Nand {
			return 1 - p
		}
		return p
	case circuit.Or, circuit.Nor:
		p := 1.0
		for _, q := range ps {
			p *= 1 - q
		}
		if t == circuit.Nor {
			return p
		}
		return 1 - p
	case circuit.Xor, circuit.Xnor:
		p := 0.0
		for _, q := range ps {
			p = p*(1-q) + (1-p)*q
		}
		if t == circuit.Xnor {
			return 1 - p
		}
		return p
	case circuit.Not:
		return 1 - ps[0]
	default: // Buf
		return ps[0]
	}
}

// balancedType picks, among the multi-input cell types, one whose
// output probability stays usable (closest to 1/2) for the given
// fan-in probabilities. Deep random NAND/NOR logic otherwise saturates
// signal probabilities and leaves gates that never toggle — a
// pathology real benchmark circuits do not exhibit.
func (g *generator) balancedType(ps []float64) circuit.CellType {
	cands := []circuit.CellType{circuit.Nand, circuit.Nor, circuit.And, circuit.Or}
	// Shuffle candidate order so ties do not always resolve to NAND.
	g.r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	best := cands[0]
	bestDist := 2.0
	for _, t := range cands {
		p := typeP1(t, ps)
		d := p - 0.5
		if d < 0 {
			d = -d
		}
		// Accept the first candidate in the (shuffled) order that is
		// already well-balanced; otherwise keep the closest to 1/2.
		if d <= 0.25 {
			return t
		}
		if d < bestDist {
			bestDist = d
			best = t
		}
	}
	return best
}

func (g *generator) faninCount(typ circuit.CellType) int {
	if typ.MaxFanin() == 1 {
		return 1
	}
	switch v := g.r.Float64(); {
	case v < 0.72:
		return 2
	case v < 0.92:
		return 3
	default:
		return 4
	}
}

// emitGates creates the logic gates with target levels 1..depth.
func (g *generator) emitGates(depth int) {
	n := g.p.Gates
	for i := 0; i < n; i++ {
		level := 1 + i*depth/n
		if level > depth {
			level = depth
		}
		typ := g.gateType()
		want := g.faninCount(typ)

		fanin := make([]int, 0, want)
		// First fan-in from the level directly below to pin the depth.
		below := g.buckets[level-1]
		if len(below) == 0 {
			// The schedule guarantees a populated level below, except
			// when single-input chains skip levels; fall back to the
			// deepest populated level.
			for l := level - 1; l >= 0; l-- {
				if len(g.buckets[l]) > 0 {
					below = g.buckets[l]
					break
				}
			}
		}
		fanin = append(fanin, below[g.r.IntN(len(below))])
		// Remaining fan-ins from any strictly lower level.
		lower := g.signalsBelow(level)
		for len(fanin) < want {
			cand := g.r.IntN(lower)
			if !contains(fanin, cand) {
				fanin = append(fanin, cand)
			} else if lower <= want {
				break // tiny pools: accept fewer inputs
			}
		}
		ps := g.ps[:0]
		for _, f := range fanin {
			ps = append(ps, g.probs[f])
		}
		g.ps = ps
		switch {
		case len(fanin) == 1 && typ.MinFanin() > 1:
			typ = circuit.Not // degrade gracefully in tiny circuits
		case typ.MaxFanin() < 0:
			typ = g.balancedType(ps)
		case typ == circuit.Xor || typ == circuit.Xnor:
			// keep as drawn; XOR is balanced by construction
		}

		g.addSignal(level, typeP1(typ, ps))
		g.gates = append(g.gates, genGate{typ: typ, fanin: fanin, level: level})
	}
}

// signalsBelow returns how many signals have level < level. Levels
// never decrease as signal IDs grow, so those signals are exactly the
// IDs [0, k): drawing IntN(k) picks the same signal as drawing an index
// into their ID-ordered list.
func (g *generator) signalsBelow(level int) int {
	k := 0
	for l := 0; l < level; l++ {
		k += len(g.buckets[l])
	}
	return k
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// chooseSinks selects the PO driver signals and the DFF data signals,
// preferring dangling (fanout-free) deep gates so as much generated
// logic as possible is observable.
func (g *generator) chooseSinks() (pos, ffData []int) {
	fanout := g.fanoutCounts()
	var dangling []int
	for id := g.p.PI + g.p.DFF; id < len(g.levels); id++ {
		if fanout[id] == 0 {
			dangling = append(dangling, id)
		}
	}
	// Deepest dangling first; ties broken by ID for determinism.
	sort.Slice(dangling, func(i, j int) bool {
		if g.levels[dangling[i]] != g.levels[dangling[j]] {
			return g.levels[dangling[i]] > g.levels[dangling[j]]
		}
		return dangling[i] < dangling[j]
	})

	need := g.p.PO + g.p.DFF
	picks := make([]int, 0, need)
	picks = append(picks, dangling...)
	if len(picks) > need {
		picks = picks[:need]
	}
	used := make(map[int]bool, len(picks))
	for _, id := range picks {
		used[id] = true
	}
	// Top up with random distinct gate signals.
	nGateSignals := len(g.levels) - g.p.PI - g.p.DFF
	for len(picks) < need && len(used) < nGateSignals {
		id := g.p.PI + g.p.DFF + g.r.IntN(nGateSignals)
		if !used[id] {
			used[id] = true
			picks = append(picks, id)
		}
	}
	// Interleave deterministically: POs take even positions of the
	// shuffled pick list, DFF data the rest.
	g.r.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	if len(picks) < need {
		// Degenerate tiny profile: reuse signals.
		for len(picks) < need {
			picks = append(picks, picks[g.r.IntN(len(picks))])
		}
	}
	return picks[:g.p.PO], picks[g.p.PO:]
}

func (g *generator) fanoutCounts() []int {
	fanout := make([]int, len(g.levels))
	for _, gg := range g.gates {
		for _, f := range gg.fanin {
			fanout[f]++
		}
	}
	return fanout
}

// repairDangling connects any remaining fanout-free gates as extra
// fan-ins of deeper variadic gates, so the netlist has (almost) no dead
// logic. Gates that cannot be absorbed (no deeper variadic gate) are
// left dangling; they are rare and harmless.
func (g *generator) repairDangling(pos, ffData []int) {
	sink := make(map[int]bool)
	for _, id := range pos {
		sink[id] = true
	}
	for _, id := range ffData {
		sink[id] = true
	}
	fanout := g.fanoutCounts()
	// Variadic gates in index order and their levels. Levels never
	// decrease with the index, so the gates deeper than a level are a
	// suffix of this list.
	var varGates, varLevels []int
	for gi, gg := range g.gates {
		if gg.typ.MaxFanin() < 0 {
			varGates = append(varGates, gi)
			varLevels = append(varLevels, gg.level)
		}
	}
	for id := g.p.PI + g.p.DFF; id < len(g.levels); id++ {
		if fanout[id] > 0 || sink[id] {
			continue
		}
		cands := varGates[sort.SearchInts(varLevels, g.levels[id]+1):]
		if len(cands) == 0 {
			continue
		}
		for try := 0; try < 8; try++ {
			gi := cands[g.r.IntN(len(cands))]
			gg := &g.gates[gi]
			if len(gg.fanin) < 6 && !contains(gg.fanin, id) {
				gg.fanin = append(gg.fanin, id)
				break
			}
		}
	}
}

// signalNames names every signal, in signal order: the primary inputs
// I0, I1, …, the flip-flop outputs Q0, Q1, … and the logic gates N0,
// N1, …. The names are slices of one string.
func (g *generator) signalNames() []string {
	n := len(g.levels)
	var buf []byte
	ends := make([]int, n)
	for s := range n {
		switch {
		case s < g.p.PI:
			buf = strconv.AppendInt(append(buf, 'I'), int64(s), 10)
		case s < g.p.PI+g.p.DFF:
			buf = strconv.AppendInt(append(buf, 'Q'), int64(s-g.p.PI), 10)
		default:
			buf = strconv.AppendInt(append(buf, 'N'), int64(s-g.p.PI-g.p.DFF), 10)
		}
		ends[s] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for s, end := range ends {
		names[s] = all[start:end]
		start = end
	}
	return names
}

// build feeds the generated structure through circuit.Builder, adding
// DFFs and output markers, and returns the scan-converted circuit.
func (g *generator) build(pos, ffData []int) (*circuit.Circuit, error) {
	names := g.signalNames()
	b := circuit.NewBuilder(g.p.Name)
	for i := 0; i < g.p.PI; i++ {
		if err := b.AddInput(names[i]); err != nil {
			return nil, err
		}
	}
	for i, data := range ffData {
		if err := b.AddGate(names[g.p.PI+i], circuit.DFF, names[data]); err != nil {
			return nil, err
		}
	}
	var fin []string // reused: AddGate copies the names
	for i, gg := range g.gates {
		fin = fin[:0]
		for _, f := range gg.fanin {
			fin = append(fin, names[f])
		}
		if err := b.AddGate(names[g.p.PI+g.p.DFF+i], gg.typ, fin...); err != nil {
			return nil, err
		}
	}
	for _, id := range pos {
		b.MarkOutput(names[id])
	}
	c, err := b.Build(true)
	if err != nil {
		return nil, err
	}
	if err := c.Check(); err != nil {
		return nil, fmt.Errorf("synth: generated circuit invalid: %w", err)
	}
	return c, nil
}
