package logicsim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
)

// randomPairs builds n random pattern pairs for c.
func randomPairs(t *testing.T, c *circuit.Circuit, seed uint64, n int) []PatternPair {
	t.Helper()
	r := rng.New(seed)
	v1s := randomVectors(r, c, n)
	v2s := randomVectors(r, c, n)
	pairs := make([]PatternPair, n)
	for i := range pairs {
		pairs[i] = PatternPair{V1: v1s[i], V2: v2s[i]}
	}
	return pairs
}

// TestPackPatternPairsMatchesPackVectors pins the pair packer against
// two independent packVectors calls over the V1 and V2 planes.
func TestPackPatternPairsMatchesPackVectors(t *testing.T) {
	c, err := synth.GenerateNamed("small", 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 17, 1, 0} {
		pairs := randomPairs(t, c, uint64(100+n), n)
		init, final, err := PackPatternPairsInto(nil, nil, c, pairs)
		if err != nil {
			t.Fatal(err)
		}
		v1s := make([]Vector, n)
		v2s := make([]Vector, n)
		for i, p := range pairs {
			v1s[i], v2s[i] = p.V1, p.V2
		}
		wantInit := mustPack(t, c, v1s)
		wantFinal := mustPack(t, c, v2s)
		for i := range init {
			if init[i] != wantInit[i] || final[i] != wantFinal[i] {
				t.Fatalf("n=%d input %d: pair packing differs from packVectors", n, i)
			}
		}
		// Ragged-tail contract: lanes above n stay zero.
		for i := range init {
			if init[i]&^TailMask(n) != 0 || final[i]&^TailMask(n) != 0 {
				t.Fatalf("n=%d input %d: tail lanes not zero", n, i)
			}
		}
	}
}

// TestPackPatternPairsErrors pins the error contract: more than 64
// pairs, or a width mismatch on either vector, is rejected.
func TestPackPatternPairsErrors(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PackPatternPairsInto(nil, nil, c, randomPairs(t, c, 5, 65)); err == nil {
		t.Error("65 pairs accepted")
	}
	pairs := randomPairs(t, c, 6, 2)
	pairs[1].V1 = pairs[1].V1[:len(pairs[1].V1)-1]
	if _, _, err := PackPatternPairsInto(nil, nil, c, pairs); err == nil {
		t.Error("short V1 accepted")
	}
	pairs = randomPairs(t, c, 7, 2)
	pairs[0].V2 = append(pairs[0].V2, true)
	if _, _, err := PackPatternPairsInto(nil, nil, c, pairs); err == nil {
		t.Error("long V2 accepted")
	}
}

// TestPackPatternPairsIntoReusesBuffers: with large-enough dsts the
// Into form returns the same backing arrays, fully overwritten.
func TestPackPatternPairsIntoReusesBuffers(t *testing.T) {
	c, err := synth.GenerateNamed("mini", 3)
	if err != nil {
		t.Fatal(err)
	}
	dirty := func() []uint64 {
		s := make([]uint64, len(c.Inputs)+5)
		for i := range s {
			s[i] = ^uint64(0)
		}
		return s
	}
	dstI, dstF := dirty(), dirty()
	pairs := randomPairs(t, c, 9, 10)
	init, final, err := PackPatternPairsInto(dstI, dstF, c, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if &init[0] != &dstI[0] || &final[0] != &dstF[0] {
		t.Error("Into form did not reuse the provided backing arrays")
	}
	wantI, wantF, err := PackPatternPairsInto(nil, nil, c, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantI {
		if init[i] != wantI[i] || final[i] != wantF[i] {
			t.Fatalf("input %d: dirty-buffer packing differs", i)
		}
	}
}

// TestTransitionConeArcsWordsMatchesScalar pins the word-parallel cone
// kernel lane-by-lane against TransitionConeArcs over random circuits,
// including ragged blocks and restricting masks.
func TestTransitionConeArcsWordsMatchesScalar(t *testing.T) {
	for _, profile := range []string{"mini", "small"} {
		c, err := synth.GenerateNamed(profile, 7)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(47)
		for _, lanes := range []int{64, 17, 1} {
			pairs := randomPairs(t, c, uint64(200+lanes), lanes)
			init, final, err := PackPatternPairsInto(nil, nil, c, pairs)
			if err != nil {
				t.Fatal(err)
			}
			initVals := EvalWordsInto(nil, c, init)
			finalVals := EvalWordsInto(nil, c, final)
			dst := make([]uint64, len(c.Arcs))
			cone := c.NewGateSet()
			for oi := range c.Outputs {
				mask := r.Uint64() | 1 // keep lane 0 exercised
				for i := range dst {
					dst[i] = 0
				}
				TransitionConeArcsWordsInto(dst, cone, c, initVals, finalVals, oi, mask)
				for b := 0; b < lanes; b++ {
					tr := SimulatePair(c, pairs[b])
					want := transitionConeArcs(c, tr, oi)
					sel := mask>>uint(b)&1 == 1
					for aid := range dst {
						gotBit := dst[aid]>>uint(b)&1 == 1
						if gotBit != (sel && want.Has(circuit.ArcID(aid))) {
							t.Fatalf("%s output %d lane %d arc %d: words %v scalar %v (mask %v)",
								profile, oi, b, aid, gotBit, want.Has(circuit.ArcID(aid)), sel)
						}
					}
				}
				for aid, w := range dst {
					if w&^(TailMask(lanes)&mask) != 0 {
						t.Fatalf("%s output %d arc %d: unselected lanes set (%#x)", profile, oi, aid, w)
					}
				}
			}
		}
	}
}

// TestSensitizedArcsWordsMaskedRestrictsLanes: the masked variant is
// the unmasked kernel with unselected lanes removed, exactly.
func TestSensitizedArcsWordsMaskedRestrictsLanes(t *testing.T) {
	c, err := synth.GenerateNamed("small", 11)
	if err != nil {
		t.Fatal(err)
	}
	pairs := randomPairs(t, c, 77, 64)
	init, final, err := PackPatternPairsInto(nil, nil, c, pairs)
	if err != nil {
		t.Fatal(err)
	}
	initVals := EvalWordsInto(nil, c, init)
	finalVals := EvalWordsInto(nil, c, final)
	full := make([]uint64, len(c.Arcs))
	masked := make([]uint64, len(c.Arcs))
	active := make([]uint64, len(c.Gates))
	r := rng.New(13)
	for oi := range c.Outputs {
		mask := r.Uint64()
		for i := range full {
			full[i] = 0
			masked[i] = 0
		}
		SensitizedArcsWordsMaskedInto(full, active, c, initVals, finalVals, oi, ^uint64(0))
		SensitizedArcsWordsMaskedInto(masked, active, c, initVals, finalVals, oi, mask)
		for aid := range full {
			if masked[aid] != full[aid]&mask {
				t.Fatalf("output %d arc %d: masked %#x, want %#x", oi, aid, masked[aid], full[aid]&mask)
			}
		}
	}
}

// lowFlipPairs builds n pattern pairs for c whose V1 is uniform and
// whose V2 flips each input with probability 1/flip: quiet side inputs
// let transitions propagate much further than uniform pairs do.
func lowFlipPairs(r *rand.Rand, c *circuit.Circuit, n, flip int) []PatternPair {
	pairs := make([]PatternPair, n)
	for i, v1 := range randomVectors(r, c, n) {
		v2 := slices.Clone(v1)
		for j := range v2 {
			if r.IntN(flip) == 0 {
				v2[j] = !v2[j]
			}
		}
		pairs[i] = PatternPair{V1: v1, V2: v2}
	}
	return pairs
}

// checkSiteSensitizedWords runs SiteSensitizedWordsInto on one block
// of up to 64 pairs for every site in sites and compares each lane of
// every output's hit word with SensitizedArcs(...).Has(site). It
// returns the number of set hit bits.
func checkSiteSensitizedWords(t testing.TB, c *circuit.Circuit, pairs []PatternPair, sites []circuit.ArcID) int {
	t.Helper()
	init, final, err := PackPatternPairsInto(nil, nil, c, pairs)
	if err != nil {
		t.Fatal(err)
	}
	initVals := EvalWordsInto(nil, c, init)
	finalVals := EvalWordsInto(nil, c, final)
	want := make([][]circuit.ArcSet, len(pairs))
	for b, p := range pairs {
		tr := SimulatePair(c, p)
		want[b] = make([]circuit.ArcSet, len(c.Outputs))
		for oi := range c.Outputs {
			want[b][oi] = SensitizedArcs(c, tr, oi)
		}
	}
	hits := make([]uint64, len(c.Outputs))
	reach := make([]uint64, len(c.Gates))
	n := 0
	for _, site := range sites {
		SiteSensitizedWordsInto(hits, reach, c, c.FanoutConeOrder(c.Arcs[site].To), initVals, finalVals, site)
		for oi, w := range hits {
			if w&^TailMask(len(pairs)) != 0 {
				t.Fatalf("site %d output %d: tail lanes set (%#x)", site, oi, w)
			}
			for b := range pairs {
				got := w>>uint(b)&1 == 1
				if got != want[b][oi].Has(site) {
					t.Fatalf("site %d output %d lane %d: words %v, SensitizedArcs %v", site, oi, b, got, !got)
				}
				if got {
					n++
				}
			}
		}
	}
	return n
}

// TestSiteSensitizedWords pins the site-sensitization kernel, lane by
// lane and output by output, to the scalar SensitizedArcs walk for
// every arc of the circuit as the site, over full and ragged blocks of
// uniform and low-flip pairs.
func TestSiteSensitizedWords(t *testing.T) {
	for _, profile := range []string{"small", "s1196", "s1488"} {
		c, err := synth.GenerateNamed(profile, 5)
		if err != nil {
			t.Fatal(err)
		}
		sites := make([]circuit.ArcID, len(c.Arcs))
		for i := range sites {
			sites[i] = circuit.ArcID(i)
		}
		r := rng.New(29)
		hits := 0
		for _, lanes := range []int{64, 37, 1} {
			hits += checkSiteSensitizedWords(t, c, randomPairs(t, c, uint64(300+lanes), lanes), sites)
			hits += checkSiteSensitizedWords(t, c, lowFlipPairs(r, c, lanes, 10), sites)
		}
		if hits == 0 {
			t.Fatalf("%s: no lane sensitizes any site: the check is vacuous", profile)
		}
		t.Logf("%s: %d arcs, %d (site, output, lane) hits", profile, len(sites), hits)
	}
}

// FuzzSiteSensitizedWords lets the fuzzer pick the circuit, the block
// size, the flip rate of the pairs and the site.
func FuzzSiteSensitizedWords(f *testing.F) {
	var circuits []*circuit.Circuit
	for _, profile := range []string{"mini", "small", "s1196"} {
		c, err := synth.GenerateNamed(profile, 3)
		if err != nil {
			f.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	f.Add(uint8(0), uint64(1), uint8(64), uint8(2), uint16(0))
	f.Add(uint8(1), uint64(2), uint8(17), uint8(10), uint16(40))
	f.Add(uint8(2), uint64(3), uint8(63), uint8(8), uint16(500))
	f.Fuzz(func(t *testing.T, ci uint8, seed uint64, lanes, flip uint8, site uint16) {
		c := circuits[int(ci)%len(circuits)]
		n := 1 + int(lanes)%64
		pairs := lowFlipPairs(rng.New(seed), c, n, 1+int(flip)%16)
		checkSiteSensitizedWords(t, c, pairs, []circuit.ArcID{circuit.ArcID(int(site) % len(c.Arcs))})
	})
}

// transitionConeArcs is the scalar hazard cone of output outIdx: the
// arcs inside the output's fan-in cone whose driver transitions. It is
// the oracle for TransitionConeArcsWordsInto.
func transitionConeArcs(c *circuit.Circuit, tr Transition, outIdx int) circuit.ArcSet {
	arcs := c.NewArcSet()
	cone := c.FaninCone(c.Outputs[outIdx])
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if !cone.Has(a.To) || !cone.Has(a.From) {
			continue
		}
		if tr.Init[a.From] != tr.Final[a.From] {
			arcs.Add(a.ID)
		}
	}
	return arcs
}
