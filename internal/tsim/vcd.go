package tsim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/circuit"
)

// WriteVCD dumps a recorded simulation as a Value Change Dump file,
// viewable in GTKWave and every other waveform viewer. The result must
// come from a run; its waveforms are right-continuous, so zero-width
// (same-instant) toggles do not appear. Times are scaled by
// timescale ticks per delay unit (e.g. 1000 for three decimal digits
// of resolution).
func WriteVCD(w io.Writer, c *circuit.Circuit, res *Result, timescale float64) error {
	if res.w == nil {
		return fmt.Errorf("tsim: WriteVCD requires the Result of a run")
	}
	if timescale <= 0 {
		return fmt.Errorf("tsim: timescale must be positive")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "$date generated by repro/internal/tsim $end")
	fmt.Fprintln(bw, "$timescale 1ps $end")
	fmt.Fprintln(bw, "$scope module circuit $end")
	ids := make([]string, len(c.Gates))
	for i := range c.Gates {
		ids[i] = vcdID(i)
		fmt.Fprintf(bw, "$var wire 1 %s %s $end\n", ids[i], c.Gates[i].Name)
	}
	fmt.Fprintln(bw, "$upscope $end")
	fmt.Fprintln(bw, "$enddefinitions $end")

	// Initial values.
	fmt.Fprintln(bw, "$dumpvars")
	for i := range c.Gates {
		fmt.Fprintf(bw, "%s%s\n", vcdBit(res.Init[i]), ids[i])
	}
	fmt.Fprintln(bw, "$end")

	// Merge all transitions into one time-ordered stream. They are
	// appended gate by gate in waveform order, so the stable sort keeps
	// gates ascending within a tick and a gate's steps in order even
	// when two of them round to the same tick.
	type change struct {
		t    int64
		gate int
		v    bool
	}
	var changes []change
	for g := range c.Gates {
		for _, st := range res.Waveform(circuit.GateID(g)) {
			changes = append(changes, change{t: int64(math.Round(st.T * timescale)), gate: g, v: st.V})
		}
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].t < changes[j].t })
	last := int64(-1)
	for _, ch := range changes {
		if ch.t != last {
			fmt.Fprintf(bw, "#%d\n", ch.t)
			last = ch.t
		}
		fmt.Fprintf(bw, "%s%s\n", vcdBit(ch.v), ids[ch.gate])
	}
	return bw.Flush()
}

func vcdBit(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// vcdID produces the compact printable identifier VCD uses, base-94
// over the printable ASCII range.
func vcdID(n int) string {
	const lo, hi = 33, 126
	const base = hi - lo + 1
	var b []byte
	for {
		b = append(b, byte(lo+n%base))
		n /= base
		if n == 0 {
			break
		}
		n--
	}
	return string(b)
}
