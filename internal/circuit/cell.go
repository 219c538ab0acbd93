// Package circuit provides the gate-level netlist substrate: a cell
// library with logic semantics, a directed acyclic circuit graph whose
// arcs are the pin-to-pin delay edges of the paper's circuit model
// (Definition D.1), topological utilities (levelization, fan-in/fan-out
// cones), scan conversion for sequential benchmarks, and structural
// validation.
package circuit

import "fmt"

// CellType enumerates the supported cell functions. The set covers the
// ISCAS'89 .bench vocabulary plus explicit input/output port markers.
type CellType uint8

// Supported cell types.
const (
	Input CellType = iota // primary input (or pseudo-PI after scan conversion)
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF     // D flip-flop; removed by scan conversion
	Output  // primary output port (one input, identity function)
	numCell // sentinel
)

// CellClass groups the cell types that evaluate alike. Every
// evaluator of the repository — Eval, EvalWords, the timed
// simulator's counting evaluator and PODEM's 3-valued implication —
// switches on the class and reads the rest of the cell's row, never
// on the type.
type CellClass uint8

// Cell classes.
const (
	// ClassInput cells have no fan-in and are never evaluated.
	ClassInput CellClass = iota
	// ClassControlled cells (AND, NAND, OR, NOR) have a controlling
	// value: one input at it fixes the output.
	ClassControlled
	// ClassParity cells (XOR, XNOR) output the parity of their ones.
	ClassParity
	// ClassBuffer cells (BUF, NOT, OUTPUT, DFF) pass their one input.
	ClassBuffer
)

// cell is one row of the cell table: everything the evaluators know
// about a cell type.
type cell struct {
	name  string
	class CellClass
	// value is the input value whose presence decides the output: the
	// controlling value of a controlled cell, 1 for a parity cell
	// (which counts ones) and 0 for a buffer, which evaluates as a
	// one-input AND.
	value bool
	// inv complements the class's output: NAND, NOR, XNOR and NOT.
	inv bool
	// minFanin and maxFanin bound the fan-in; maxFanin -1 is unbounded.
	minFanin, maxFanin int8
}

// cells is the cell table, one row per type.
var cells = [numCell]cell{
	Input:  {name: "INPUT", class: ClassInput},
	Buf:    {name: "BUF", class: ClassBuffer, minFanin: 1, maxFanin: 1},
	Not:    {name: "NOT", class: ClassBuffer, inv: true, minFanin: 1, maxFanin: 1},
	And:    {name: "AND", class: ClassControlled, minFanin: 2, maxFanin: -1},
	Nand:   {name: "NAND", class: ClassControlled, inv: true, minFanin: 2, maxFanin: -1},
	Or:     {name: "OR", class: ClassControlled, value: true, minFanin: 2, maxFanin: -1},
	Nor:    {name: "NOR", class: ClassControlled, value: true, inv: true, minFanin: 2, maxFanin: -1},
	Xor:    {name: "XOR", class: ClassParity, value: true, minFanin: 2, maxFanin: -1},
	Xnor:   {name: "XNOR", class: ClassParity, value: true, inv: true, minFanin: 2, maxFanin: -1},
	DFF:    {name: "DFF", class: ClassBuffer, minFanin: 1, maxFanin: 1},
	Output: {name: "OUTPUT", class: ClassBuffer, minFanin: 1, maxFanin: 1},
}

func (c CellType) String() string {
	if c < numCell {
		return cells[c].name
	}
	return fmt.Sprintf("CellType(%d)", uint8(c))
}

// ParseCellType converts a .bench function name to a CellType: the
// name of any cell but the two ports, which .bench declares with
// INPUT and OUTPUT statements, or one of the aliases BUFF and INV. The
// boolean reports whether the name was recognized.
func ParseCellType(name string) (CellType, bool) {
	switch name {
	case "BUFF":
		return Buf, true
	case "INV":
		return Not, true
	}
	for t := Input + 1; t < Output; t++ {
		if cells[t].name == name {
			return t, true
		}
	}
	return 0, false
}

// Class returns the cell's evaluation class.
func (c CellType) Class() CellClass { return cells[c].class }

// MinFanin returns the minimum legal fan-in for the cell type.
func (c CellType) MinFanin() int { return int(cells[c].minFanin) }

// MaxFanin returns the maximum legal fan-in (-1 means unbounded).
func (c CellType) MaxFanin() int { return int(cells[c].maxFanin) }

// Sequential reports whether the cell is a flip-flop, which only an
// unconverted sequential netlist holds.
func (c CellType) Sequential() bool { return c == DFF }

// Eval computes the cell's boolean function over the input values. An
// Input cell evaluates to false; simulators never call Eval on one.
func (c CellType) Eval(in []bool) bool {
	r := &cells[c]
	out := false
	switch r.class {
	case ClassControlled, ClassBuffer:
		out = !r.value
		for _, v := range in {
			if v == r.value {
				out = r.value
				break
			}
		}
	case ClassParity:
		for _, v := range in {
			out = out != v
		}
	}
	return out != r.inv
}

// EvalWords computes the function over 64-way bit-parallel words (one
// pattern per bit), used by the parallel-pattern logic simulator.
func (c CellType) EvalWords(in []uint64) uint64 {
	r := &cells[c]
	var out uint64
	switch r.class {
	case ClassControlled, ClassBuffer:
		if r.value {
			for _, v := range in {
				out |= v
			}
		} else {
			out = ^uint64(0)
			for _, v := range in {
				out &= v
			}
		}
	case ClassParity:
		for _, v := range in {
			out ^= v
		}
	}
	if r.inv {
		out = ^out
	}
	return out
}

// Controlling returns the controlling input value of the cell and
// whether the cell has one. An input at the controlling value fixes the
// output regardless of the other inputs (AND/NAND: 0, OR/NOR: 1).
// XOR/XNOR and single-input cells have no controlling value.
func (c CellType) Controlling() (value bool, ok bool) {
	if r := &cells[c]; r.class == ClassControlled {
		return r.value, true
	}
	return false, false
}

// Counted returns the input value whose count decides the cell's
// output, the row's controlling or counted value: the controlling
// value of a controlled cell, 1 for a parity cell and 0 for a buffer
// or an input. A controlled cell or buffer outputs Counted when some
// input holds it and its complement otherwise, a parity cell the
// parity of that count, each then inverted by Inverting.
func (c CellType) Counted() bool { return cells[c].value }

// Inverting reports whether the cell logically inverts: the output with
// all inputs non-controlling (or the single input, for 1-input cells)
// is the complement of the non-controlling value.
func (c CellType) Inverting() bool { return cells[c].inv }
