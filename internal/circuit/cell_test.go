package circuit

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestParseCellType(t *testing.T) {
	cases := map[string]CellType{
		"AND": And, "NAND": Nand, "OR": Or, "NOR": Nor,
		"XOR": Xor, "XNOR": Xnor, "NOT": Not, "INV": Not,
		"BUF": Buf, "BUFF": Buf, "DFF": DFF,
	}
	for name, want := range cases {
		got, ok := ParseCellType(name)
		if !ok || got != want {
			t.Errorf("ParseCellType(%q) = %v, %v", name, got, ok)
		}
	}
	// Unknown names, the ports (.bench declares them with statements)
	// and the deleted constant cells are rejected.
	for _, name := range []string{"MUX42", "INPUT", "OUTPUT", "CONST0", "CONST1"} {
		if typ, ok := ParseCellType(name); ok {
			t.Errorf("ParseCellType(%q) = %v", name, typ)
		}
	}
}

// truth is the test's own definition of every cell's function.
func truth(t *testing.T, typ CellType, in []bool) bool {
	t.Helper()
	ones := 0
	for _, v := range in {
		if v {
			ones++
		}
	}
	switch typ {
	case Buf, DFF, Output:
		return in[0]
	case Not:
		return !in[0]
	case And:
		return ones == len(in)
	case Nand:
		return ones < len(in)
	case Or:
		return ones > 0
	case Nor:
		return ones == 0
	case Xor:
		return ones%2 == 1
	case Xnor:
		return ones%2 == 0
	}
	t.Fatalf("no truth function for %v", typ)
	return false
}

// forAssignments calls fn for every evaluated cell type, every legal
// fan-in up to 4 and every input assignment, assignment a giving pin k
// the value of bit k of a.
func forAssignments(fn func(typ CellType, n, a int, in []bool)) {
	for typ := Input + 1; typ < numCell; typ++ {
		hi := typ.MaxFanin()
		if hi < 0 {
			hi = 4
		}
		for n := typ.MinFanin(); n <= hi; n++ {
			in := make([]bool, n)
			for a := 0; a < 1<<n; a++ {
				for k := range in {
					in[k] = a>>k&1 == 1
				}
				fn(typ, n, a, in)
			}
		}
	}
}

func TestEvalTruthTables(t *testing.T) {
	two := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	cases := []struct {
		typ  CellType
		want [4]bool
	}{
		{And, [4]bool{false, false, false, true}},
		{Nand, [4]bool{true, true, true, false}},
		{Or, [4]bool{false, true, true, true}},
		{Nor, [4]bool{true, false, false, false}},
		{Xor, [4]bool{false, true, true, false}},
		{Xnor, [4]bool{true, false, false, true}},
	}
	for _, c := range cases {
		for i, in := range two {
			if got := c.typ.Eval(in); got != c.want[i] {
				t.Errorf("%v%v = %v, want %v", c.typ, in, got, c.want[i])
			}
		}
	}
	if Not.Eval([]bool{true}) || !Not.Eval([]bool{false}) {
		t.Errorf("NOT wrong")
	}
	if !Buf.Eval([]bool{true}) || Buf.Eval([]bool{false}) {
		t.Errorf("BUF wrong")
	}
	if Input.Eval(nil) {
		t.Errorf("INPUT evaluates to true")
	}
	// Every cell, fan-in and assignment against the truth function.
	checked := 0
	forAssignments(func(typ CellType, _, _ int, in []bool) {
		if got, want := typ.Eval(in), truth(t, typ, in); got != want {
			t.Errorf("%v%v = %v, truth gives %v", typ, in, got, want)
		}
		checked++
	})
	if checked != 6*(4+8+16)+4*2 { // multi-input, single-input cells
		t.Errorf("checked %d assignments", checked)
	}
}

func TestEvalVariadic(t *testing.T) {
	in := []bool{true, true, false, true}
	if And.Eval(in) {
		t.Errorf("4-in AND with a zero should be 0")
	}
	if !Or.Eval(in) {
		t.Errorf("4-in OR with a one should be 1")
	}
	if !Xor.Eval(in) { // three ones -> odd parity
		t.Errorf("4-in XOR parity wrong")
	}
	if Xnor.Eval(in) {
		t.Errorf("4-in XNOR parity wrong")
	}
	// Each variadic cell answers alike at every fan-in: one pin at the
	// controlling value fixes a controlled cell's output, and a parity
	// cell's output flips with pin 0.
	forAssignments(func(typ CellType, n, _ int, in []bool) {
		if n < 3 {
			return
		}
		if ctrl, ok := typ.Controlling(); ok {
			forced := typ.Eval([]bool{ctrl, ctrl})
			if slices.Contains(in, ctrl) && typ.Eval(in) != forced {
				t.Errorf("%v%v: a controlling input does not force %v", typ, in, forced)
			}
		}
		if typ.Class() == ClassParity {
			if flipped := typ.Eval(in) != typ.Eval(in[1:]); flipped != in[0] {
				t.Errorf("%v%v: pin 0 does not decide the parity", typ, in)
			}
		}
	})
}

// TestEvalWordsMatchesEval checks each lane of bit-parallel evaluation
// against the truth function for every cell, fan-in and assignment,
// then against the scalar Eval over random words.
func TestEvalWordsMatchesEval(t *testing.T) {
	// Lane a of pin k's word holds bit k of assignment a.
	forAssignments(func(typ CellType, n, a int, in []bool) {
		words := make([]uint64, n)
		for k := range words {
			for lane := 0; lane < 1<<n; lane++ {
				words[k] |= uint64(lane>>k&1) << lane
			}
		}
		if got, want := typ.EvalWords(words)>>a&1 == 1, truth(t, typ, in); got != want {
			t.Errorf("%v%v lane %d = %v, truth gives %v", typ, in, a, got, want)
		}
	})
	if Input.EvalWords(nil) != 0 {
		t.Errorf("INPUT words nonzero")
	}
	types := []CellType{And, Nand, Or, Nor, Xor, Xnor}
	f := func(a, b, c uint64, ti uint8) bool {
		typ := types[int(ti)%len(types)]
		words := []uint64{a, b, c}
		out := typ.EvalWords(words)
		for bit := 0; bit < 64; bit++ {
			in := []bool{a>>bit&1 == 1, b>>bit&1 == 1, c>>bit&1 == 1}
			if typ.Eval(in) != (out>>bit&1 == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Single-input cells.
	w := uint64(0xF0F0AAAA55551111)
	if Not.EvalWords([]uint64{w}) != ^w {
		t.Errorf("NOT words wrong")
	}
	if Buf.EvalWords([]uint64{w}) != w {
		t.Errorf("BUF words wrong")
	}
}

func TestControllingAndInverting(t *testing.T) {
	cases := []struct {
		typ    CellType
		ctrl   bool
		has    bool
		invert bool
	}{
		{And, false, true, false},
		{Nand, false, true, true},
		{Or, true, true, false},
		{Nor, true, true, true},
		{Xor, false, false, false},
		{Xnor, false, false, true},
		{Not, false, false, true},
		{Buf, false, false, false},
	}
	for _, c := range cases {
		v, ok := c.typ.Controlling()
		if ok != c.has || (ok && v != c.ctrl) {
			t.Errorf("%v Controlling = %v,%v", c.typ, v, ok)
		}
		if c.typ.Inverting() != c.invert {
			t.Errorf("%v Inverting = %v", c.typ, c.typ.Inverting())
		}
	}
}

// Controlling-value semantics: any input at the controlling value
// forces the output to Eval(all-controlling).
func TestControllingForcesOutput(t *testing.T) {
	for _, typ := range []CellType{And, Nand, Or, Nor} {
		ctrl, _ := typ.Controlling()
		forced := typ.Eval([]bool{ctrl, ctrl})
		for _, other := range []bool{false, true} {
			if got := typ.Eval([]bool{ctrl, other}); got != forced {
				t.Errorf("%v controlling input does not force output", typ)
			}
			if got := typ.Eval([]bool{other, ctrl}); got != forced {
				t.Errorf("%v controlling input does not force output (pin 1)", typ)
			}
		}
	}
}

func TestMinMaxFanin(t *testing.T) {
	if And.MinFanin() != 2 || And.MaxFanin() != -1 {
		t.Errorf("AND fanin bounds wrong")
	}
	if Not.MinFanin() != 1 || Not.MaxFanin() != 1 {
		t.Errorf("NOT fanin bounds wrong")
	}
	if Input.MinFanin() != 0 || Input.MaxFanin() != 0 {
		t.Errorf("INPUT fanin bounds wrong")
	}
}

func TestCellTypeString(t *testing.T) {
	if And.String() != "AND" || DFF.String() != "DFF" {
		t.Errorf("String() wrong")
	}
	if CellType(200).String() == "" {
		t.Errorf("out-of-range String empty")
	}
}
