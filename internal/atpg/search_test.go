package atpg_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/synth"
)

// matchReference runs every PathTest of p — both criteria, both
// polarities, first through Attempts and then through PathTest — on
// gen and, with the reference search, on ref, and then PathSetTests'
// tryPath for p, with r and rRef in lockstep. It fails t at the first
// attempt outcome, pair, error or draw from r that differs, and when
// gen's objective table does not mark exactly the last PathTest's
// non-input objectives. It returns how many of gen's attempt-0
// searches made a decision.
func matchReference(t testing.TB, gen, ref *atpg.Generator, p path.Path, r, rRef *rand.Rand, where string) (searched int) {
	t.Helper()
	draws := func(step string) {
		t.Helper()
		if a, b := r.Uint64(), rRef.Uint64(); a != b {
			t.Fatalf("%s, %s: r diverged from the reference's (%#x vs %#x)", where, step, a, b)
		}
	}
	for _, robust := range []bool{true, false} {
		for _, rising := range []bool{true, false} {
			step := fmt.Sprintf("robust=%t rising=%t", robust, rising)
			outs, err := gen.Attempts(p, rising, robust, r)
			want, wantErr := ref.ReferenceAttempts(p, rising, robust, rRef)
			if !slices.Equal(outs, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, %s: attempts %v (%v), reference %v (%v)", where, step, outs, err, want, wantErr)
			}
			if len(outs) > 0 && outs[0].Backtracks > 0 {
				searched++
			}
			draws(step + " Attempts")

			pair, err := gen.PathTest(p, rising, robust, r)
			wantPair, wantErr := ref.ReferencePathTest(p, rising, robust, rRef)
			if pair.String() != wantPair.String() || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, %s: PathTest %s (%v), reference %s (%v)", where, step, pair, err, wantPair, wantErr)
			}
			if err == nil || errors.Is(err, atpg.ErrUntestable) || errors.Is(err, atpg.ErrBudget) {
				if _, err := gen.ForbidMarks(p, rising, robust); err != nil {
					t.Fatalf("%s, %s: objective table: %v", where, step, err)
				}
			}
			draws(step + " PathTest")
		}
	}
	res, ok := gen.TryPath(p, true, r)
	wantRes, wantOK := ref.ReferenceTryPath(p, true, rRef)
	if ok != wantOK || res.Robust != wantRes.Robust || res.Pair.String() != wantRes.Pair.String() {
		t.Fatalf("%s: tryPath %t %s robust=%t, reference %t %s robust=%t",
			where, ok, res.Pair, res.Robust, wantOK, wantRes.Pair, wantRes.Robust)
	}
	draws("tryPath")
	return searched
}

// TestSearchMatchesReference pins PathTest and PathSetTests' tryPath —
// a decision that falsifies an objective stops its implication and
// fails without the child call, and tryPath prepares a path once per
// criterion — to the reference search, which implies every decision
// in full and prepares every call from scratch. It runs every
// structural path DiagnosticPatterns tries for the table1_analytic
// sites and for s5378 Table I cases 1-4, with one Generator per
// circuit on each side and one r stream per case, seeded alike.
func TestSearchMatchesReference(t *testing.T) {
	cases := append(analyticCases(t), tableICases(t, caseSpan{"s5378", 4})...)
	type sides struct{ gen, ref *atpg.Generator }
	gens := map[*circuit.Circuit]sides{}
	paths, searched := 0, 0
	for _, tc := range cases {
		g, ok := gens[tc.c]
		if !ok {
			g = sides{atpg.NewGenerator(tc.c), atpg.NewGenerator(tc.c)}
			gens[tc.c] = g
		}
		r, rRef := rng.New(tc.atpgSeed), rng.New(tc.atpgSeed)
		for i, p := range path.KLongestThrough(tc.c, tc.nominal, tc.site, max(6*tc.maxPatterns, 100)) {
			searched += matchReference(t, g.gen, g.ref, p, r, rRef, fmt.Sprintf("%s case %d path %d", tc.circuit, tc.seed, i))
			paths++
		}
	}
	if searched == 0 {
		t.Fatal("no attempt 0 made a decision: the check is vacuous")
	}
	t.Logf("%d paths, %d searching attempt-0s", paths, searched)
}

// walkPath builds a structural path from walk: byte 0 picks the launch
// input, and each further byte the fan-out arc to follow from the gate
// reached, until an output port (a missing byte picks the first arc).
// It returns the path and the bytes it used, and false when the walk
// reaches a gate without fan-out.
func walkPath(c *circuit.Circuit, walk []byte) (path.Path, int, bool) {
	if len(walk) == 0 {
		return path.Path{}, 0, false
	}
	g := c.Inputs[int(walk[0])%len(c.Inputs)]
	var arcs []circuit.ArcID
	k := 1
	for ; c.Gates[g].Type != circuit.Output; k++ {
		var out []circuit.ArcID
		for _, h := range c.Gates[g].Fanout {
			for pin, fi := range c.Gates[h].Fanin {
				if fi == g {
					out = append(out, c.Gates[h].InArcs[pin])
				}
			}
		}
		if len(out) == 0 {
			return path.Path{}, min(k, len(walk)), false
		}
		var b byte
		if k < len(walk) {
			b = walk[k]
		}
		a := out[int(b)%len(out)]
		arcs = append(arcs, a)
		g = c.Arcs[a].To
	}
	return path.Path{Arcs: arcs}, min(k, len(walk)), true
}

// FuzzPathSearch is TestSearchMatchesReference on structural paths
// the fuzzer walks through mini or small: the walk bytes give up to
// four paths in turn, all on the same two Generators, so each path
// also checks that the previous path's objective marks are gone.
func FuzzPathSearch(f *testing.F) {
	var cs []*circuit.Circuit
	for _, name := range []string{"mini", "small"} {
		c, err := synth.GenerateNamed(name, 2003)
		if err != nil {
			f.Fatal(err)
		}
		cs = append(cs, c)
	}
	f.Add(byte(0), uint64(1), []byte{0, 1, 2, 3})
	f.Add(byte(1), uint64(2), []byte{5, 0, 0, 0, 0, 0, 0, 0, 9, 1, 1, 1, 1, 1, 1})
	f.Add(byte(1), uint64(3), []byte{17, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6})
	f.Add(byte(0), uint64(4), []byte{2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5})
	f.Fuzz(func(t *testing.T, which byte, seed uint64, walk []byte) {
		c := cs[int(which)%len(cs)]
		gen, ref := atpg.NewGenerator(c), atpg.NewGenerator(c)
		r, rRef := rng.New(seed), rng.New(seed)
		for n := 0; n < 4 && len(walk) > 0; n++ {
			p, used, ok := walkPath(c, walk)
			walk = walk[max(used, 1):]
			if ok {
				matchReference(t, gen, ref, p, r, rRef, fmt.Sprintf("path %d %v", n, p.Arcs))
			}
		}
	})
}
