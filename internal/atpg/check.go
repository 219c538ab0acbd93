package atpg

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/path"
)

// CheckPathTest verifies that pair sensitizes path p under the chosen
// criterion using settled two-vector logic values (the same untimed
// view the generator works in):
//
//   - the path input transitions between the vectors;
//   - every on-path gate's side inputs hold the non-controlling value
//     in the final vector, and XOR-family side inputs are stable;
//   - the final value propagates along the path with the expected
//     polarity;
//   - for robust tests (hazard-free robust criterion) the side inputs
//     are steadily non-controlling in both vectors, which additionally
//     guarantees a static transition at every on-path gate.
//
// Non-robust tests intentionally do not require a static transition at
// every on-path gate: a side input that is controlling in V1 can mask
// the initial value, yet the test still observes a late final value
// when no other path interferes — exactly the non-robust guarantee.
//
// A nil return means the pair is a valid test for p under the chosen
// criterion.
func CheckPathTest(c *circuit.Circuit, p path.Path, pair logicsim.PatternPair, robust bool) error {
	if err := p.Validate(c); err != nil {
		return err
	}
	tr := logicsim.SimulatePair(c, pair)
	launch := c.Arcs[p.Arcs[0]].From
	if tr.Init[launch] == tr.Final[launch] {
		return fmt.Errorf("atpg: path input %s does not transition", c.Gates[launch].Name)
	}
	cur1, cur2 := tr.Init[launch], tr.Final[launch]
	for _, aid := range p.Arcs {
		a := &c.Arcs[aid]
		gate := &c.Gates[a.To]
		from := a.From
		if tr.Final[from] != cur2 {
			return fmt.Errorf("atpg: on-path final value mismatch entering %s", gate.Name)
		}
		if robust && tr.Init[from] != cur1 {
			return fmt.Errorf("atpg: on-path initial value mismatch entering %s (robust)", gate.Name)
		}
		ctrl, hasCtrl := gate.Type.Controlling()
		switch {
		case hasCtrl:
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				if tr.Final[fi] == ctrl {
					return fmt.Errorf("atpg: side input %s of %s controlling in V2", c.Gates[fi].Name, gate.Name)
				}
				if robust && tr.Init[fi] == ctrl {
					return fmt.Errorf("atpg: side input %s of %s not steady (robust)", c.Gates[fi].Name, gate.Name)
				}
			}
			if gate.Type.Inverting() {
				cur1, cur2 = !cur1, !cur2
			}
		case gate.Type == circuit.Xor || gate.Type == circuit.Xnor:
			inv := gate.Type == circuit.Xnor
			for k, fi := range gate.Fanin {
				if k == a.Pin {
					continue
				}
				if tr.Init[fi] != tr.Final[fi] {
					return fmt.Errorf("atpg: XOR side input %s of %s unstable", c.Gates[fi].Name, gate.Name)
				}
				if tr.Final[fi] {
					inv = !inv
				}
			}
			if inv {
				cur1, cur2 = !cur1, !cur2
			}
		case gate.Type == circuit.Not:
			cur1, cur2 = !cur1, !cur2
		case gate.Type == circuit.Buf || gate.Type == circuit.Output:
			// transparent
		default:
			return fmt.Errorf("atpg: unsupported on-path cell %v", gate.Type)
		}
		if tr.Final[a.To] != cur2 {
			return fmt.Errorf("atpg: final value not propagated through %s", gate.Name)
		}
		if robust && tr.Init[a.To] != cur1 {
			return fmt.Errorf("atpg: transition not propagated through %s (robust)", gate.Name)
		}
	}
	return nil
}

// PathSetTests generates tests for a set of paths: for each path it
// tries robust generation with both launch polarities first, then (if
// allowed) non-robust, and keeps the first success. Duplicate pattern
// pairs are removed. The paper's methodology tests the longest paths
// through a fault site "with robust or non-robust patterns derived
// without considering timing" — this is that procedure.
type PathTestResult struct {
	Path   path.Path
	Pair   logicsim.PatternPair
	Robust bool
}

// PathSetTests returns at most one test per path; paths with no test
// under either criterion are skipped.
func PathSetTests(c *circuit.Circuit, paths []path.Path, allowNonRobust bool, r *rand.Rand) []PathTestResult {
	gen := NewGenerator(c)
	var out []PathTestResult
	seen := make(map[string]bool)
	for _, p := range paths {
		res, ok := tryPath(gen, p, allowNonRobust, r)
		if !ok {
			continue
		}
		key := res.Pair.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, res)
	}
	return out
}

func tryPath(gen *Generator, p path.Path, allowNonRobust bool, r *rand.Rand) (PathTestResult, bool) {
	for _, robust := range []bool{true, false} {
		if !robust && !allowNonRobust {
			break
		}
		for _, rising := range []bool{true, false} {
			pair, err := gen.PathTest(p, rising, robust, r)
			if err == nil {
				return PathTestResult{Path: p, Pair: pair, Robust: robust}, true
			}
		}
	}
	return PathTestResult{}, false
}
