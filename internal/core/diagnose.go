package core

import (
	"fmt"
	"math"
	"sort"

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
	phi := make([]float64, d.Cols)
	d.patternConsistencyInto(phi, si, b)
	return phi
}

// patternConsistencyInto is PatternConsistency writing into
// caller-owned phi, the kernel behind Diagnose: ranking every suspect
// reuses one phi buffer instead of allocating per suspect.
//
//ddd:hot
func (d *Dictionary) patternConsistencyInto(phi []float64, si int, b *Behavior) {
	if b.Rows != d.Rows || b.Cols != d.Cols {
		panic("core: behavior shape does not match dictionary")
	}
	for j := 0; j < d.Cols; j++ {
		p := 1.0
		for i := 0; i < d.Rows; i++ {
			sij := d.signature(si, i*d.Cols+j)
			if b.At(i, j) {
				p *= sij
			} else {
				p *= 1 - sij
			}
		}
		phi[j] = p
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
// given method and returns all candidates, best first (Algorithm E.1
// step 8 / Algorithm F.1 revised step 8). Ties break on ascending arc
// ID for determinism. Callers take the first K entries as the
// diagnosis answer.
func (d *Dictionary) Diagnose(b *Behavior, method Method) []Ranked {
	return d.DiagnoseMethods(b, []Method{method})[0]
}

// DiagnoseMethods returns Diagnose(b, methods[k]) for every k, computing
// each suspect's per-pattern consistencies once for all the methods.
func (d *Dictionary) DiagnoseMethods(b *Behavior, methods []Method) [][]Ranked {
	by := make([]scorer, len(methods))
	for k, m := range methods {
		by[k] = scorer{m.Score, m.lowerIsBetter()}
	}
	return rank(d.Suspects, nil, len(d.Suspects), b.Cols, func(phi []float64, si int) { d.patternConsistencyInto(phi, si, b) }, by)
}

// DiagnoseErrorFunc ranks suspects with a custom diagnosis error
// function: fn maps the per-pattern consistency vector φ to an error
// value that is minimized. This is the extension point the paper's
// conclusion calls for ("to develop a good diagnosis algorithm ... we
// need to search for a good error function first"). One φ buffer
// serves every suspect, so fn must not retain the slice.
func (d *Dictionary) DiagnoseErrorFunc(b *Behavior, fn func(phi []float64) float64) []Ranked {
	return rank(d.Suspects, nil, len(d.Suspects), b.Cols, func(phi []float64, si int) { d.patternConsistencyInto(phi, si, b) }, []scorer{{fn, true}})[0]
}

// rank is the one ranking loop behind both dictionary forms. The
// suspects fall into classes of identical signatures: classOf[si] is
// suspect si's class, or nil when each suspect is its own class (the
// dense form). consistency writes class c's φ into a buffer shared by
// every class, each scorer reduces it to the class's score without
// retaining it, every suspect takes its class's score in each ranking,
// and each ranking is sorted best first with ties on ascending arc ID.
// Every ranking counts as one diagnosis.
func rank(suspects []circuit.ArcID, classOf []int32, classes, cols int, consistency func(phi []float64, c int), by []scorer) [][]Ranked {
	diagnoses.Add(float64(len(by)))
	scores := make([]float64, classes*len(by))
	phi := make([]float64, cols)
	for c := 0; c < classes; c++ {
		consistency(phi, c)
		for k, s := range by {
			scores[c*len(by)+k] = s.score(phi)
		}
	}
	outs := make([][]Ranked, len(by))
	for k := range outs {
		outs[k] = make([]Ranked, len(suspects))
		for si, arc := range suspects {
			c := si
			if classOf != nil {
				c = int(classOf[si])
			}
			outs[k][si] = Ranked{Arc: arc, Score: scores[c*len(by)+k]}
		}
	}
	for k, s := range by {
		out := outs[k]
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score < out[j].Score {
				return s.lowerIsBetter
			}
			if out[i].Score > out[j].Score {
				return !s.lowerIsBetter
			}
			return out[i].Arc < out[j].Arc
		})
	}
	return outs
}
