// Package detorder implements the deterministic-order analyzer: Go
// map iteration order is deliberately randomized, so anything a
// map-range loop feeds into serialized output must pass through a sort
// first, or the bytes differ run to run and the golden SHA-256 tests,
// dictionary persistence, and byte-deterministic serve responses
// (DESIGN.md, "Determinism & lint invariants") all break.
//
// For every `for … range m` over a map it reports:
//
//   - a serializing call directly inside the loop body — fmt.Fprint*/
//     Print*, Write/WriteString/WriteByte/WriteRune methods, Encode,
//     or a hash Sum: the bytes are emitted in map order;
//   - a string accumulation (`s += …`) inside the loop body into a
//     variable declared outside it: concatenation order is the map's;
//   - flow-sensitively, a slice appended to inside the loop body that
//     reaches a sink — a call argument, a return statement, or a
//     subsequent range — without a sort.* / slices.Sort* call on every
//     control-flow path in between. Collect-then-sort is the
//     sanctioned idiom; sorting on only one branch of a conditional
//     still leaks map order down the other branch and is flagged at
//     the sink.
//
// Order-insensitive uses (counting, summing into non-float scalars,
// writing into another map) report nothing. Intentional
// nondeterminism documents itself with //lint:ignore detorder
// <reason>.
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the detorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc: "map-range results must not reach serialized output, hashes, or " +
		"dictionary construction without an intervening sort on every path",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.ForEachFunc(func(fn ast.Node, body *ast.BlockStmt) {
		mapRanges := collectMapRanges(pass, body)
		if len(mapRanges) == 0 {
			return
		}
		for _, r := range mapRanges {
			checkDirectSinks(pass, r)
		}
		checkCollectedSlices(pass, fn, mapRanges)
	})
	return nil
}

// collectMapRanges finds range statements over map-typed operands,
// excluding nested function literals (analyzed in their own right).
func collectMapRanges(pass *analysis.Pass, body *ast.BlockStmt) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(r.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, r)
			}
		}
		return true
	})
	return out
}

// inRange reports whether pos falls inside r's body.
func inRange(r *ast.RangeStmt, pos token.Pos) bool {
	return r.Body.Pos() <= pos && pos < r.Body.End()
}

// serializeMethods are method names whose call order becomes byte
// order in some output.
var serializeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Sum": true,
}

// serializeFuncs are package-level printers keyed by package path.
var serializeFuncs = map[string]map[string]bool{
	"fmt": {
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Print": true, "Printf": true, "Println": true,
	},
}

// checkDirectSinks flags serialization performed in the loop body
// itself.
func checkDirectSinks(pass *analysis.Pass, r *ast.RangeStmt) {
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			// A nested map range reports its own sinks.
			if nested := pass.TypeOf(n.X); nested != nil {
				if _, isMap := nested.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.CallExpr:
			if name := serializingCall(pass, n); name != "" {
				pass.Reportf(n.Pos(),
					"%s inside a map-range loop: iteration order is randomized, "+
						"so the emitted bytes differ run to run — collect and sort first",
					name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && isString(pass.TypeOf(id)) &&
					declaredOutside(pass, id, r) {
					pass.Reportf(n.Pos(),
						"string concatenation into %q inside a map-range loop: "+
							"accumulation order is the map's randomized order", id.Name)
				}
			}
		}
		return true
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// declaredOutside reports whether id's object is declared outside r's
// body (so its value survives the loop).
func declaredOutside(pass *analysis.Pass, id *ast.Ident, r *ast.RangeStmt) bool {
	obj := pass.ObjectOf(id)
	return obj != nil && !inRange(r, obj.Pos())
}

// serializingCall names a serializing call, or returns "".
func serializingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if path := pass.QualifierPath(sel.X); path != "" {
		if serializeFuncs[path][sel.Sel.Name] {
			return path + "." + sel.Sel.Name
		}
		return ""
	}
	if pass.Callee(call) != nil && serializeMethods[sel.Sel.Name] {
		return "call of " + sel.Sel.Name
	}
	return ""
}

// checkCollectedSlices runs the flow-sensitive part: slices appended
// to inside a map-range must be sorted on every path before a sink.
func checkCollectedSlices(pass *analysis.Pass, fn ast.Node, mapRanges []*ast.RangeStmt) {
	g := pass.CFG(fn)
	if g == nil {
		return
	}
	res := g.Pairs(func(n ast.Node) []flow.Event {
		return classifyNode(pass, n, mapRanges)
	})
	seen := make(map[ast.Node]bool)
	for _, leak := range res.UseLeaks {
		if seen[leak.At] {
			continue
		}
		seen[leak.At] = true
		obj := leak.Key.(types.Object)
		pass.Reportf(leak.At.Pos(),
			"%q collects map-range keys (append at line %d) and reaches this point "+
				"without a sort on every path: downstream order is the map's randomized order",
			obj.Name(), pass.Fset.Position(leak.Acquire.Pos()).Line)
	}
}

// classifyNode emits taint events for one shallow CFG node: appends in
// a map-range body acquire, sorts release, sinks use.
func classifyNode(pass *analysis.Pass, n ast.Node, mapRanges []*ast.RangeStmt) []flow.Event {
	var events []flow.Event
	flow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			// Return statements are sinks for any tainted ident they
			// carry; handled at the statement level below.
			return true
		}
		switch {
		case isAppend(pass, call):
			if obj := appendTarget(pass, call, mapRanges); obj != nil {
				events = append(events, flow.Event{Kind: flow.EventAcquire, Key: obj, Node: call})
			}
		case isSortCall(pass, call):
			for _, obj := range identObjs(pass, call.Args) {
				events = append(events, flow.Event{Kind: flow.EventRelease, Key: obj, Node: call})
			}
		default:
			// Length/capacity queries are order-blind, not sinks.
			if id, ok := call.Fun.(*ast.Ident); ok {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin &&
					(id.Name == "len" || id.Name == "cap" || id.Name == "delete") {
					return true
				}
			}
			// Any other call consuming the slice is a sink: the callee
			// sees (and typically serializes or stores) map order.
			for _, obj := range identObjs(pass, call.Args) {
				if isSliceObj(obj) {
					events = append(events, flow.Event{Kind: flow.EventUse, Key: obj, Node: call})
				}
			}
		}
		return true
	})
	if ret, ok := n.(*ast.ReturnStmt); ok {
		// Only direct identifier results: a call in a return position
		// already reported the slice as its own argument sink.
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); isSliceObj(obj) {
					events = append(events, flow.Event{Kind: flow.EventUse, Key: obj, Node: ret})
				}
			}
		}
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		if id, ok := r.X.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && isSliceObj(obj) {
				events = append(events, flow.Event{Kind: flow.EventUse, Key: obj, Node: r.X})
			}
		}
	}
	return events
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin && id.Name == "append"
}

// appendTarget returns the object of `append(s, …)`'s base slice when
// the append executes inside a map-range body and s is declared
// outside that loop (so the collected values survive it).
func appendTarget(pass *analysis.Pass, call *ast.CallExpr, mapRanges []*ast.RangeStmt) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return nil
	}
	for _, r := range mapRanges {
		if inRange(r, call.Pos()) && !inRange(r, obj.Pos()) {
			return obj
		}
	}
	return nil
}

// isSortCall matches sort.* and slices.Sort* calls, plus hand-rolled
// comparator helpers by naming convention: a call of any function or
// method whose name begins with "sort"/"Sort" (the repository writes
// sortArcs, sortByCount, … for comparators that must keep strict weak
// ordering instead of tolerance-aware comparison; see DESIGN.md §8).
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path := pass.QualifierPath(sel.X); path != "" {
			return path == "sort" || path == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")
		}
	}
	fn := pass.Callee(call)
	return fn != nil && (strings.HasPrefix(fn.Name(), "sort") || strings.HasPrefix(fn.Name(), "Sort"))
}

// identObjs resolves plain identifier expressions (including those
// nested one conversion deep, as in sort.Sort(byName(s))) to objects.
func identObjs(pass *analysis.Pass, exprs []ast.Expr) []types.Object {
	var out []types.Object
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					out = append(out, obj)
				}
			}
			return true
		})
	}
	return out
}

// isSliceObj reports whether obj is slice-typed.
func isSliceObj(obj types.Object) bool {
	if obj == nil {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}
