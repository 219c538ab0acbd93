package atpg

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
)

// checkImplication fails t unless g.vals equals a full simulation of
// g.inAssn, computed on a fresh Generator.
func checkImplication(t *testing.T, g *Generator, step string) {
	t.Helper()
	want := NewGenerator(g.c)
	for f := 0; f < 2; f++ {
		copy(want.inAssn[f], g.inAssn[f])
	}
	want.simulate()
	for f := 0; f < 2; f++ {
		if !bytes.Equal(g.vals[f], want.vals[f]) {
			for gid := range want.vals[f] {
				if g.vals[f][gid] != want.vals[f][gid] {
					t.Fatalf("%s: frame %d gate %s = %d, full simulation gives %d",
						step, f, g.c.Gates[gid].Name, g.vals[f][gid], want.vals[f][gid])
				}
			}
		}
	}
}

// implicationCircuits are the netlists the implication oracle runs on.
func implicationCircuits(tb testing.TB) []*circuit.Circuit {
	tb.Helper()
	var cs []*circuit.Circuit
	for _, name := range []string{"mini", "small", "s1238"} {
		c, err := synth.GenerateNamed(name, 2003)
		if err != nil {
			tb.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestImplicationMatchesFullSimulate drives random assign/unassign
// sequences through setInput on both frames and checks after every
// step that the incrementally maintained values equal a full
// re-simulation of the assignment — the invariant PODEM relies on.
func TestImplicationMatchesFullSimulate(t *testing.T) {
	for _, c := range implicationCircuits(t) {
		t.Run(c.Name, func(t *testing.T) {
			g := NewGenerator(c)
			checkImplication(t, g, "fresh generator")
			r := rng.New(7)
			for step := 0; step < 600; step++ {
				frame, idx := r.IntN(2), r.IntN(len(c.Inputs))
				v := fX
				if r.IntN(3) != 0 { // assign twice as often as unassign
					v = byte(r.IntN(2))
				}
				g.setInput(frame, idx, v)
				if g.inAssn[frame][idx] != v {
					t.Fatalf("step %d: inAssn not updated", step)
				}
				checkImplication(t, g, "after step")
				if step%200 == 199 {
					g.clear()
					checkImplication(t, g, "after clear")
				}
			}
		})
	}
}

// FuzzImplication is TestImplicationMatchesFullSimulate with the
// assign/unassign sequence chosen by the fuzzer: each 3-byte group
// selects a frame and input and a value (0, 1 or X).
func FuzzImplication(f *testing.F) {
	cs := implicationCircuits(f)
	f.Add(byte(0), []byte{0, 0, 1, 1, 0, 0, 0, 0, 2})
	f.Add(byte(1), []byte{3, 7, 0, 2, 9, 1, 3, 7, 2, 0, 1, 1})
	f.Add(byte(2), []byte{1, 200, 1, 0, 13, 0, 1, 200, 2, 1, 5, 1})
	f.Fuzz(func(t *testing.T, which byte, seq []byte) {
		c := cs[int(which)%len(cs)]
		g := NewGenerator(c)
		for i := 0; i+2 < len(seq); i += 3 {
			frame := int(seq[i] & 1)
			idx := int(seq[i+1]) % len(c.Inputs)
			v := seq[i+2] % 3 // f0, f1, fX
			g.setInput(frame, idx, v)
			checkImplication(t, g, "fuzz step")
		}
	})
}
