package tsim

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
)

// pathSums appends to sums the delay of every path from gate g to an
// output, each summed from the output end back (d + rest), the
// association the backward pass uses: 0 when g is itself an output,
// then every path through each arc out of g. It enumerates paths one
// by one, sharing nothing between them.
func pathSums(sums []float64, c *circuit.Circuit, out [][]circuit.ArcID, isOut []bool, delays []float64, g circuit.GateID) []float64 {
	if isOut[g] {
		sums = append(sums, 0)
	}
	for _, a := range out[g] {
		n := len(sums)
		sums = pathSums(sums, c, out, isOut, delays, c.Arcs[a].To)
		for k := n; k < len(sums); k++ {
			sums[k] = delays[a] + sums[k]
		}
	}
	return sums
}

// TestWindowBoundsMatchPathEnumeration pins the backward pass to a
// brute-force enumeration of every gate-to-output path on sampled and
// grid-snapped instances: minDown and maxDown must equal the shortest
// and longest path exactly (±Inf for a gate that reaches no output),
// and each window must contain [clk − maxDown, clk − minDown], widened
// by at most 2^-20 of the sums' scale. It asserts that some windows
// end before clk and start after 0, so the windows do prune.
func TestWindowBoundsMatchPathEnumeration(t *testing.T) {
	for _, name := range []string{"mini", "small"} {
		c, err := synth.GenerateNamed(name, 29)
		if err != nil {
			t.Fatal(err)
		}
		m := timing.NewModel(c, timing.DefaultParams())
		cell := m.MeanCellDelay()
		out := make([][]circuit.ArcID, len(c.Gates))
		for _, a := range c.Arcs {
			out[a.From] = append(out[a.From], a.ID)
		}
		isOut := make([]bool, len(c.Gates))
		for _, o := range c.Outputs {
			isOut[o] = true
		}
		win := NewWindow(c)
		r := rng.New(3)
		early, late, unobserved := 0, 0, 0
		for trial := 0; trial < 6; trial++ {
			delays := snapDelays(m.SampleInstance(r).Delays, []float64{0, 0.25, 0.1}[trial%3])
			clk := (0.4 + 0.8*r.Float64()) * float64(c.Depth()) * cell
			win.Set(delays, clk)
			var sums []float64
			for g := range c.Gates {
				sums = pathSums(sums[:0], c, out, isOut, delays, circuit.GateID(g))
				shortest, longest := math.Inf(1), math.Inf(-1)
				for _, s := range sums {
					shortest, longest = min(shortest, s), max(longest, s)
				}
				if win.minDown[g] != shortest || win.maxDown[g] != longest {
					t.Fatalf("%s trial %d gate %d: minDown/maxDown %v/%v, paths give %v/%v",
						name, trial, g, win.minDown[g], win.maxDown[g], shortest, longest)
				}
				if len(sums) == 0 {
					unobserved++
					if !math.IsInf(win.hi[g], -1) || !math.IsInf(win.lo[g], 1) {
						t.Fatalf("%s gate %d reaches no output but has window [%v, %v]", name, g, win.lo[g], win.hi[g])
					}
					continue
				}
				tol := 0x1p-20 * (clk + win.maxDown[g])
				if wantHi := clk - shortest; win.hi[g] < wantHi || win.hi[g] > wantHi+tol {
					t.Fatalf("%s trial %d gate %d: hi %v, clk − minDown %v", name, trial, g, win.hi[g], wantHi)
				}
				if wantLo := clk - longest; win.lo[g] > wantLo || win.lo[g] < wantLo-tol {
					t.Fatalf("%s trial %d gate %d: lo %v, clk − maxDown %v", name, trial, g, win.lo[g], wantLo)
				}
				if win.hi[g] < clk {
					early++
				}
				if win.lo[g] > 0 {
					late++
				}
			}
		}
		if early == 0 || late == 0 {
			t.Errorf("%s: %d windows end before clk, %d start after 0; want both > 0", name, early, late)
		}
		t.Logf("%s: %d windows end before clk, %d start after 0, %d gates unobserved", name, early, late, unobserved)
	}
}

// TestWindowSlackNests checks the premise of the window's soundness
// argument (DESIGN.md §20) as the kernel's float sums see it: for every
// arc g→h between observed gates, a step of g after hi[g] arrives at h
// after hi[h], and one at or before lo[g] arrives at or before lo[h].
// Float addition is monotone, so it suffices that hi[g] + d > hi[h]
// and lo[g] + d <= lo[h], each computed as the kernel computes an
// arrival.
func TestWindowSlackNests(t *testing.T) {
	c, err := synth.GenerateNamed("small", 53)
	if err != nil {
		t.Fatal(err)
	}
	m := timing.NewModel(c, timing.DefaultParams())
	cell := m.MeanCellDelay()
	win := NewWindow(c)
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		grid := []float64{0, 0.5, 0.1}[trial%3]
		delays := snapDelays(m.SampleInstance(r).Delays, grid)
		clk := (0.3 + r.Float64()) * float64(c.Depth()) * cell
		if grid > 0 && trial%2 == 0 {
			clk = math.Round(clk/grid) * grid
		}
		win.Set(delays, clk)
		for _, a := range c.Arcs {
			g, h := a.From, a.To
			if math.IsInf(win.hi[h], -1) {
				continue
			}
			d := delays[a.ID]
			if !(win.hi[g]+d > win.hi[h]) || !(win.lo[g]+d <= win.lo[h]) {
				t.Fatalf("trial %d arc %d (%d→%d, d=%v): windows [%v, %v] and [%v, %v] do not nest",
					trial, a.ID, g, h, d, win.lo[g], win.hi[g], win.lo[h], win.hi[h])
			}
		}
	}
}
