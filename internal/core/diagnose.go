package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/circuit"
)

// Method selects a diagnosis error function. Methods I–III are the
// Alg_sim variants of Algorithm E.1 step 7; AlgRev is the revised
// algorithm of Section F-3 with the explicit Euclidean error function
// of equation (5). L1, Chebyshev and LogLik are further error
// functions of the kind the paper's conclusion asks for (future-work
// item 5); each answers Figure 2's question of what a "better match"
// means differently.
type Method int

// The paper's diagnosis methods, then the extension error functions.
// AlgRev and every method after it is an error, minimized.
const (
	MethodI   Method = iota // ℘ = 1 − Π_j (1 − φ_j): consistent with at least one pattern
	MethodII                // ℘ = mean_j φ_j: average per-pattern consistency
	MethodIII               // ℘ = Π_j φ_j: consistent with every pattern
	AlgRev                  // ℘ = Σ_j (1 − φ_j)²: Euclidean distance to the ideal, minimized
	L1                      // ℘ = Σ_j |1 − φ_j|: linear penalty, less dominated by the worst pattern than AlgRev
	Chebyshev               // ℘ = max_j (1 − φ_j): only the worst pattern matters
	// LogLik is ℘ = −Σ_j log max(φ_j, ε), the log-likelihood of the
	// behavior under the independence model: Method III in the log
	// domain with an ε floor, so one inconsistent pattern costs −log ε
	// instead of zeroing the whole product.
	LogLik
)

func (m Method) String() string {
	switch m {
	case MethodI:
		return "Alg_sim-I"
	case MethodII:
		return "Alg_sim-II"
	case MethodIII:
		return "Alg_sim-III"
	case AlgRev:
		return "Alg_rev"
	case L1:
		return "L1"
	case Chebyshev:
		return "chebyshev"
	case LogLik:
		return "loglik"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists the paper's four diagnosis methods, the ones Table I
// reports.
var Methods = []Method{MethodI, MethodII, MethodIII, AlgRev}

// Extensions lists the extension error functions beyond the paper's
// four methods.
var Extensions = []Method{L1, Chebyshev, LogLik}

// ParseMethod maps a method name to its Method: every method's String,
// plus the short aliases "" and "rev" (AlgRev) and "I", "II", "III"
// (the Alg_sim variants).
func ParseMethod(name string) (Method, bool) {
	switch name {
	case "", "rev":
		return AlgRev, true
	case "I", "II", "III":
		name = "Alg_sim-" + name
	}
	for m := MethodI; m <= LogLik; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// MarshalText encodes a method as its name, so a map keyed by Method
// serializes with readable keys that do not depend on the enum's
// numeric values.
func (m Method) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes any name ParseMethod accepts.
func (m *Method) UnmarshalText(text []byte) error {
	parsed, ok := ParseMethod(string(text))
	if !ok {
		return fmt.Errorf("core: unknown method %q", text)
	}
	*m = parsed
	return nil
}

// lowerIsBetter reports the ranking direction of the method's score.
func (m Method) lowerIsBetter() bool { return m >= AlgRev }

// scorer is one ranking's error function and direction.
type scorer struct {
	score         func(phi []float64) float64
	lowerIsBetter bool
}

// Ranked is one candidate in a diagnosis result.
type Ranked struct {
	Arc   circuit.ArcID
	Score float64
}

// Position returns the 1-based position of arc in a ranking, 0 when
// the ranking does not contain it.
func Position(ranked []Ranked, arc circuit.ArcID) int {
	for i, rk := range ranked {
		if rk.Arc == arc {
			return i + 1
		}
	}
	return 0
}

// PatternConsistency computes the per-pattern match probabilities
// φ_j = Π_i p_ij for suspect index si against behavior B, where
// p_ij = b_ij·s_ij + (1−b_ij)(1−s_ij) (Algorithm E.1 steps 5–6): the
// probability that output i's behavior under pattern j is consistent
// with the observation, with outputs treated as independent.
func (d *Dictionary) PatternConsistency(si int, b *Behavior) []float64 {
	phi := make([]float64, b.Cols)
	d.sig.consistencyInto(phi, countFailing(b), int(d.sig.classOf[si]), b)
	return phi
}

// sigEntry is one nonzero signature probability s of output i under
// pattern j. Entries are ordered pattern-major (by j, then i), so
// per-pattern products stream through memory.
type sigEntry struct {
	i, j int32
	s    float64
}

// sigClasses holds the signatures both dictionary forms score: each
// suspect's nonzero entries in pattern-major order, stored once per
// class of suspects with identical entries. Most suspects have no entry
// at all; they share one class, which a diagnosis scores once.
type sigClasses struct {
	rows, cols int
	classOf    []int32    // suspect si's class
	byArc      []int32    // suspect indices in ascending arc order, ties by index
	off        []int32    // class c's entries are entries[off[c]:off[c+1]]
	entries    []sigEntry // every class's entries, back to back
}

func (sc *sigClasses) classes() int { return len(sc.off) - 1 }

func (sc *sigClasses) class(c int) []sigEntry { return sc.entries[sc.off[c]:sc.off[c+1]] }

// classBuilder collects distinct entry lists into a sigClasses block,
// finding a list by its FNV-1a hash and comparing it in full (lists
// whose hashes collide may get two equal classes). It copies no key and
// sizes every table up front, so its allocations do not grow with the
// classes.
type classBuilder struct {
	sc     sigClasses
	byHash map[uint64]int32 // list hash → the newest class with it
}

// newClassBuilder starts the classes of suspects and derives their arc
// order, once per dictionary: the suspects must not change after
// construction.
func newClassBuilder(rows, cols int, suspects []circuit.ArcID, entries int) classBuilder {
	nSus := len(suspects)
	return classBuilder{
		sc: sigClasses{
			rows:    rows,
			cols:    cols,
			classOf: make([]int32, nSus),
			byArc:   arcOrder(suspects),
			off:     append(make([]int32, 0, nSus+1), 0),
			entries: make([]sigEntry, 0, entries),
		},
		byHash: make(map[uint64]int32, nSus),
	}
}

// arcOrder returns the suspect indices in ascending arc order, ties by
// index. Suspect lists usually arrive in arc order already, which needs
// no sort.
func arcOrder(suspects []circuit.ArcID) []int32 {
	order := make([]int32, len(suspects))
	for si := range order {
		order[si] = int32(si)
	}
	if !slices.IsSorted(suspects) {
		slices.SortFunc(order, func(a, b int32) int {
			return cmp.Or(cmp.Compare(suspects[a], suspects[b]), cmp.Compare(a, b))
		})
	}
	return order
}

// add returns the class of entry list es, appending a new class when
// the class its hash finds stores other entries.
func (cb *classBuilder) add(es []sigEntry) int32 {
	h := uint64(14695981039346656037)
	for _, e := range es {
		h = (h ^ uint64(e.i)<<32 ^ uint64(e.j)) * 1099511628211
		h = (h ^ math.Float64bits(e.s)) * 1099511628211
	}
	if c, ok := cb.byHash[h]; ok && slices.Equal(cb.sc.class(int(c)), es) {
		return c
	}
	c := int32(cb.sc.classes())
	cb.sc.entries = append(cb.sc.entries, es...)
	cb.sc.off = append(cb.sc.off, int32(len(cb.sc.entries)))
	cb.byHash[h] = c
	return c
}

// countFailing returns the number of failing outputs of each pattern
// (column) of b. The counts depend only on b, so a diagnosis computes
// them once and shares them across all classes. It runs on the
// bit-packed word view: one popcount-style scan over Rows*⌈Cols/64⌉
// words instead of Rows*Cols cell probes, touching only set bits.
func countFailing(b *Behavior) []int {
	failing := make([]int, b.Cols)
	words := b.WordsPerRow()
	for i := 0; i < b.Rows; i++ {
		for w := 0; w < words; w++ {
			v := b.Word(i, w)
			for v != 0 {
				failing[w*64+bits.TrailingZeros64(v)]++
				v &= v - 1
			}
		}
	}
	return failing
}

// consistencyInto is the one consistency kernel of both dictionary
// forms: it writes class c's φ_j = Π_{failing i} s_ij · Π_{passing i}
// (1−s_ij) against b into phi, given b's per-pattern failing counts.
// An absent entry is s = 0: φ_j = 0 if a failing output has none, and
// a passing one would multiply by exactly 1, so multiplying the stored
// factors in ascending output order gives the dense product bit for bit.
//
//ddd:hot
func (sc *sigClasses) consistencyInto(phi []float64, failing []int, c int, b *Behavior) {
	if b.Rows != sc.rows || b.Cols != sc.cols {
		panic("core: behavior shape does not match dictionary")
	}
	// Start from the all-absent φ: 0 where a pattern fails, else 1.
	for j, n := range failing {
		phi[j] = 0
		if n == 0 {
			phi[j] = 1
		}
	}
	es := sc.class(c)
	for start, end := 0, 0; start < len(es); start = end {
		j := int(es[start].j)
		end = start + 1
		for end < len(es) && int(es[end].j) == j {
			end++
		}
		if end-start < failing[j] { // some failing output has s = 0
			continue
		}
		p, covered := 1.0, 0
		for _, e := range es[start:end] {
			if b.At(int(e.i), j) {
				p *= e.s
				covered++
			} else {
				p *= 1 - e.s
			}
		}
		if covered == failing[j] {
			phi[j] = p
		}
	}
}

// Score combines per-pattern consistencies into the method's overall
// score ℘_i (Algorithm E.1 step 7 / Algorithm F.1 revised step 7).
func (m Method) Score(phi []float64) float64 {
	switch m {
	case MethodI:
		q := 1.0
		for _, p := range phi {
			q *= 1 - p
		}
		return 1 - q
	case MethodII:
		sum := 0.0
		for _, p := range phi {
			sum += p
		}
		return sum / float64(len(phi))
	case MethodIII:
		q := 1.0
		for _, p := range phi {
			q *= p
		}
		return q
	case AlgRev:
		sum := 0.0
		for _, p := range phi {
			e := 1 - p
			sum += e * e
		}
		return sum
	case L1:
		sum := 0.0
		for _, p := range phi {
			sum += math.Abs(1 - p)
		}
		return sum
	case Chebyshev:
		worst := 0.0
		for _, p := range phi {
			if e := 1 - p; e > worst {
				worst = e
			}
		}
		return worst
	case LogLik:
		const eps = 1e-6
		sum := 0.0
		for _, p := range phi {
			if p < eps {
				p = eps
			}
			sum -= math.Log(p)
		}
		return sum
	default:
		panic(fmt.Sprintf("core: unknown method %d", int(m)))
	}
}

// Diagnose ranks every suspect against the observed behavior using the
// given method and returns the k best candidates, best first
// (Algorithm E.1 step 8 / Algorithm F.1 revised step 8): the diagnosis
// answer of size K. k <= 0 returns every candidate. Ties break on
// ascending arc ID for determinism, so the first k entries are those of
// the full ranking.
func (d *Dictionary) Diagnose(b *Behavior, method Method, k int) []Ranked {
	return rank(d.Suspects, &d.sig, b, []scorer{{method.Score, method.lowerIsBetter()}}, k)
}

// DiagnoseMethods returns the full Diagnose(b, methods[r], 0) for every
// r, computing each suspect's per-pattern consistencies once for all
// the methods.
func (d *Dictionary) DiagnoseMethods(b *Behavior, methods []Method) [][]Ranked {
	by := make([]scorer, len(methods))
	for r, m := range methods {
		by[r] = scorer{m.Score, m.lowerIsBetter()}
	}
	all, n := rank(d.Suspects, &d.sig, b, by, 0), len(d.Suspects)
	outs := make([][]Ranked, len(methods))
	for r := range outs {
		outs[r] = all[r*n : (r+1)*n : (r+1)*n]
	}
	return outs
}

// DiagnoseErrorFunc ranks every suspect with a custom diagnosis error
// function: fn maps the per-pattern consistency vector φ to an error
// value that is minimized. This is the extension point the paper's
// conclusion calls for ("to develop a good diagnosis algorithm ... we
// need to search for a good error function first"). One φ buffer
// serves every suspect, so fn must not retain the slice.
func (d *Dictionary) DiagnoseErrorFunc(b *Behavior, fn func(phi []float64) float64) []Ranked {
	return rank(d.Suspects, &d.sig, b, []scorer{{fn, true}}, 0)
}

// rank is the one ranking loop behind both dictionary forms. It writes
// each signature class's φ into a buffer shared by every class, and
// each scorer reduces it to the class's score without retaining it.
// Every suspect takes its class's score, so a ranking orders the
// classes, not the suspects: it sorts the classes by score, best first
// in the scorer's direction, and numbers the runs of equal scores (the
// tie groups), which take the ranking's slots in that order, each as
// many as its suspects. A group's suspects are ranked on ascending arc
// ID, so rank walks the suspects once in that order, drops each into
// its group's next slot and stops once the first k slots are filled.
// It returns the rankings back to back, each its first k entries (all
// when k <= 0), and counts each as one diagnosis.
func rank(suspects []circuit.ArcID, sc *sigClasses, b *Behavior, by []scorer, k int) []Ranked {
	diagnoses.Add(float64(len(by)))
	nc := sc.classes()
	if k <= 0 || k > len(suspects) {
		k = len(suspects)
	}
	failing := countFailing(b)
	fs := make([]float64, b.Cols+nc*len(by))
	phi, scores := fs[:b.Cols], fs[b.Cols:]
	for c := range nc {
		sc.consistencyInto(phi, failing, c, b)
		for r, s := range by {
			scores[r*nc+c] = s.score(phi)
		}
	}
	// Each class's size, then, reused by every ranking, the classes in
	// score order, each class's tie group and each group's next slot.
	is := make([]int32, 4*nc)
	size, order, group, next := is[:nc], is[nc:2*nc], is[2*nc:3*nc], is[3*nc:]
	for _, c := range sc.classOf {
		size[c]++
	}
	out := make([]Ranked, len(by)*k)
	for r, s := range by {
		score := scores[r*nc : (r+1)*nc]
		// lower orders a lower score: first (-1) when lower is better.
		lower := 1
		if s.lowerIsBetter {
			lower = -1
		}
		for c := range order {
			order[c] = int32(c)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if score[a] < score[b] {
				return lower
			}
			if score[a] > score[b] {
				return -lower
			}
			return 0
		})
		g, start := int32(-1), int32(0)
		for p, c := range order {
			if p == 0 || score[order[p-1]] < score[c] || score[order[p-1]] > score[c] {
				g++
				next[g] = start
			}
			group[c] = g
			start += size[c]
		}
		ranking, filled := out[r*k:(r+1)*k], 0
		for _, si := range sc.byArc {
			if filled == k {
				break
			}
			c := sc.classOf[si]
			if slot := next[group[c]]; int(slot) < k {
				ranking[slot] = Ranked{Arc: suspects[si], Score: score[c]}
				filled++
			}
			next[group[c]]++
		}
	}
	return out
}
