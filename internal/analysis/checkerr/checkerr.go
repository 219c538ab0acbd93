// Package checkerr implements the discarded-invariant analyzer. The
// repository's domain checkers — (*circuit.Circuit).Check, Path.Validate,
// atpg.CheckPathTest, and any Check*-named routine returning error —
// exist precisely to catch corrupted structures before they poison a
// diagnosis run; silently dropping their result defeats them.
//
// The analyzer flags calls to such checkers whose error result is
// discarded: a bare expression statement, an assignment to blank
// identifiers only, or a go/defer statement. A checker is any function
// or method named Validate or Check* whose only result is error.
package checkerr

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the checkerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "checkerr",
	Doc: "the error result of invariant checkers (Check*, Validate) " +
		"must not be discarded",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				report(pass, n.X)
			case *ast.GoStmt:
				report(pass, n.Call)
			case *ast.DeferStmt:
				report(pass, n.Call)
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && allBlank(n.Lhs) {
					report(pass, n.Rhs[0])
				}
			}
			return true
		})
	}
	return nil
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// report flags e when it is a call to an invariant checker.
func report(pass *analysis.Pass, e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := pass.Callee(call)
	if fn == nil || !isChecker(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"result of %s discarded: invariant-check errors must be handled or explicitly suppressed",
		fn.Name())
}

// isChecker reports whether fn looks like a domain invariant checker:
// named Validate or Check*, with exactly one result of type error.
func isChecker(fn *types.Func) bool {
	name := fn.Name()
	if name != "Validate" && !strings.HasPrefix(name, "Check") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	t := sig.Results().At(0).Type()
	return t.String() == "error"
}
