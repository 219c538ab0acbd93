// Package benchfmt reads and writes the ISCAS'89 ".bench" netlist
// format, the standard interchange format for the benchmark circuits
// the paper evaluates on (s1196 … s15850). Parsing produces a
// circuit.Circuit (optionally scan-converted so DFFs become
// pseudo-PI/PO pairs, the full-scan view used in delay testing), so
// real ISCAS'89 netlists can be dropped in wherever the synthetic
// generator is used.
//
// Grammar (per line):
//
//	# comment
//	INPUT(name)
//	OUTPUT(name)
//	name = FUNC(arg, arg, ...)
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
)

// Parse reads a .bench netlist and returns the built circuit. When
// scanConvert is set, DFFs are replaced by pseudo-primary inputs and
// outputs (required for the sequential s-series circuits, whose
// flip-flop loops would otherwise make the graph cyclic).
func Parse(r io.Reader, name string, scanConvert bool) (*circuit.Circuit, error) {
	b := circuit.NewBuilder(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, fmt.Errorf("benchfmt: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	c, err := b.Build(scanConvert)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return c, nil
}

// ParseString is Parse over a string.
func ParseString(s, name string, scanConvert bool) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s), name, scanConvert)
}

func parseLine(b *circuit.Builder, line string) error {
	if eq := strings.IndexByte(line, '='); eq >= 0 {
		lhs := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		fn, args, err := splitCall(rhs)
		if err != nil {
			return err
		}
		typ, ok := circuit.ParseCellType(fn)
		if !ok {
			return fmt.Errorf("unknown cell function %q", fn)
		}
		return b.AddGate(lhs, typ, args...)
	}
	fn, args, err := splitCall(line)
	if err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("%s expects one argument, got %d", fn, len(args))
	}
	switch strings.ToUpper(fn) {
	case "INPUT":
		return b.AddInput(args[0])
	case "OUTPUT":
		b.MarkOutput(args[0])
		return nil
	default:
		return fmt.Errorf("unrecognized statement %q", line)
	}
}

// splitCall parses "FUNC(a, b, c)" into the function name and the
// trimmed argument list.
func splitCall(s string) (fn string, args []string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed call %q", s)
	}
	fn = strings.ToUpper(strings.TrimSpace(s[:open]))
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) == "" {
		return "", nil, fmt.Errorf("empty argument list in %q", s)
	}
	for _, a := range strings.Split(inner, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, fmt.Errorf("empty argument in %q", s)
		}
		args = append(args, a)
	}
	return fn, args, nil
}

// Write emits c in .bench format. Output port gates (which the builder
// materializes) are folded back into OUTPUT(...) statements on their
// driving signal; pseudo-primary inputs from scan conversion are
// written as plain INPUTs, so the written file describes the
// combinational full-scan view.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %s\n", c.Name, c.Stats())
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[in].Name)
	}
	for _, out := range c.Outputs {
		g := &c.Gates[out]
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[g.Fanin[0]].Name)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Type {
		case circuit.Input, circuit.Output:
			continue
		}
		names := make([]string, len(g.Fanin))
		for k, fi := range g.Fanin {
			names[k] = c.Gates[fi].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}
