package logicsim

import "repro/internal/circuit"

// Launch-on-capture (broadside) pattern semantics. The diagnosis
// framework assumes enhanced scan: both vectors of a pattern pair are
// arbitrary. Real scan designs usually cannot do that — the second
// vector's state bits are produced by the circuit itself from the
// first vector (one functional clock between launch and capture). This
// file derives and checks such pairs, so experiments can quantify what
// the enhanced-scan assumption is worth.

// ScanMap relates a scan-converted circuit's pseudo inputs to the
// pseudo outputs that feed them: PPI[i] receives PPO[i]'s settled
// value on the functional clock.
type ScanMap struct {
	// PPIs[i] is the input index (into Circuit.Inputs) of pseudo input
	// i; PPOs[i] the output index (into Circuit.Outputs) of its
	// source. Primary inputs and outputs are not listed.
	PPIs []int
	PPOs []int
}

// BuildScanMap pairs the pseudo inputs with the pseudo outputs created
// by scan conversion. The circuit builder appends DFF-derived pseudo
// inputs and outputs in DFF declaration order, so positions pair up:
// the i-th pseudo input corresponds to the i-th pseudo output.
func BuildScanMap(c *circuit.Circuit, numPI, numPO int) ScanMap {
	var m ScanMap
	for i := numPI; i < len(c.Inputs); i++ {
		m.PPIs = append(m.PPIs, i)
	}
	for i := numPO; i < len(c.Outputs); i++ {
		m.PPOs = append(m.PPOs, i)
	}
	if len(m.PPIs) != len(m.PPOs) {
		panic("logicsim: pseudo input/output counts differ; wrong PI/PO split")
	}
	return m
}

// LaunchOnCapture derives the second vector of a broadside pair: state
// bits take the circuit's own next-state function of v1, primary
// inputs take piV2 (indexed parallel to the first numPI inputs; nil
// keeps them at v1).
func LaunchOnCapture(c *circuit.Circuit, m ScanMap, v1 Vector, piV2 Vector) Vector {
	vals := Eval(c, v1)
	v2 := append(Vector(nil), v1...)
	for i, ppi := range m.PPIs {
		v2[ppi] = vals[c.Outputs[m.PPOs[i]]]
	}
	for i := range piV2 {
		v2[i] = piV2[i]
	}
	return v2
}
