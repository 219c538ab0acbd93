// Package hotalloc implements the hot-path allocation analyzer: a
// function marked with a //ddd:hot doc comment declares itself part of
// the Monte-Carlo inner loop (blocked timing kernels, the timed
// waveform kernel), where steady-state work must not allocate.
// Per-iteration allocations inside such functions' loops defeat the
// scratch-reuse architecture (DESIGN.md, "Performance architecture")
// and show up directly as allocs/op regressions in the tracked core
// benchmarks.
//
// Inside every loop of a //ddd:hot function the analyzer flags:
//
//   - make(...) — build the buffer once outside the loop (or in the
//     per-worker scratch) and reuse it;
//   - new(...) — same, for pointer scratch;
//   - x = append(y, ...) where y is declared inside one of the
//     function's loops — growth that restarts from zero capacity every
//     iteration, so it reallocates on each pass. Appending to a
//     long-lived buffer declared outside the loops (x = x[:0] reuse,
//     engine fields, worker scratch) amortizes to zero allocations in
//     steady state and is not flagged.
//
// Intentional exceptions (a cold slow path inside a hot function, a
// grow-once guard) document themselves with //lint:ignore hotalloc
// <reason>.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-iteration allocation (make/new/fresh-slice append) " +
		"in loops of //ddd:hot functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHot(fd.Doc) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// isHot reports whether a doc comment carries the //ddd:hot marker.
func isHot(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		t := strings.TrimSpace(c.Text)
		if t == "//ddd:hot" || strings.HasPrefix(t, "//ddd:hot ") {
			return true
		}
	}
	return false
}

// checkFunc flags per-iteration allocations inside fd's loops.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Collect every loop of the function first: the append rule needs
	// "declared inside any loop", not just the innermost one.
	var loops []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	declaredInLoop := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		for _, l := range loops {
			if l.Pos() <= obj.Pos() && obj.Pos() < l.End() {
				return true
			}
		}
		return false
	}
	for _, l := range loops {
		body := loopBody(l)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				// Nested loops have their own entry in loops; skipping
				// them here reports each allocation exactly once.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(),
					"make inside a loop of a //ddd:hot function: allocate once and reuse scratch")
			case "new":
				pass.Reportf(call.Pos(),
					"new inside a loop of a //ddd:hot function: allocate once and reuse scratch")
			case "append":
				if len(call.Args) == 0 {
					return true
				}
				if base, ok := call.Args[0].(*ast.Ident); ok &&
					declaredInLoop(pass.TypesInfo.Uses[base]) {
					pass.Reportf(call.Pos(),
						"append to slice %q declared inside a loop of a //ddd:hot function: "+
							"growth restarts from zero capacity every iteration", base.Name)
				}
			}
			return true
		})
	}
}

// loopBody returns the statement list node of a for or range loop.
func loopBody(l ast.Node) ast.Node {
	switch l := l.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return l
}
