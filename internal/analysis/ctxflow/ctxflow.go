// Package ctxflow implements the context-threading analyzer: a
// function that receives a context.Context is part of the pipeline's
// cancellation chain (DESIGN.md, "Failure model") and must thread that
// context into every callee that can carry it. Detaching mid-chain —
// passing context.Background()/context.TODO() onward, or calling the
// context-free variant of a callee that has a Ctx sibling — silently
// breaks the ctx.Err()-on-cancel guarantee the serve and build paths
// depend on.
//
// Inside every function (or function literal) with a context.Context
// parameter it reports:
//
//   - a call argument that is directly context.Background() or
//     context.TODO(): the caller's context is dropped on the spot;
//   - a context-typed variable argument that, on some control-flow
//     path, was reassigned from context.Background()/TODO() — found
//     by the flow package's pairing analysis over the function's CFG,
//     where such an assignment acquires the variable, any other
//     assignment releases it, and a call argument uses it; so a
//     detach inside one branch of a conditional is caught at the call
//     site where the laundered context escapes;
//   - a call of a module-internal function or method Foo when a
//     sibling FooCtx or FooWorkerCtx accepting a context.Context exists
//     (eval.RunOnCircuit vs eval.RunOnCircuitCtx, par.For vs
//     par.ForWorkerCtx): the
//     context-free variant runs the work detached from cancellation.
//
// Constructing a fresh root context is legitimate in functions outside
// the chain (main, tests, servers creating their root); those have no
// ctx parameter and are not analyzed. Intentional detachment inside
// the chain (a background task that must outlive the request)
// documents itself with //lint:ignore ctxflow <reason>.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "context-receiving functions must thread their ctx: no Background/TODO " +
		"laundering mid-chain, no context-free calls when a Ctx sibling exists",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.ForEachFunc(func(fn ast.Node, body *ast.BlockStmt) {
		if receivesCtx(pass, fn) {
			checkCalls(pass, body)
			checkLaundering(pass, fn)
		}
	})
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// receivesCtx reports whether fn has a named context.Context
// parameter.
func receivesCtx(pass *analysis.Pass, fn ast.Node) bool {
	var fieldList *ast.FieldList
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		fieldList = fn.Type.Params
	case *ast.FuncLit:
		fieldList = fn.Type.Params
	}
	if fieldList == nil {
		return false
	}
	for _, field := range fieldList.List {
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil && isContextType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// isDetachCall reports whether e is context.Background() or
// context.TODO().
func isDetachCall(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") ||
		pass.QualifierPath(sel.X) != "context" {
		return "", false
	}
	return "context." + sel.Sel.Name + "()", true
}

// checkCalls reports Background/TODO call arguments and context-free
// calls with a Ctx sibling in body, skipping function literals (they
// are analyzed in their own right).
func checkCalls(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if name, ok := isDetachCall(pass, arg); ok {
				pass.Reportf(arg.Pos(),
					"%s passed onward from a function that receives a context.Context: thread the caller's ctx instead",
					name)
			}
		}
		checkCtxSibling(pass, call)
		return true
	})
}

// checkLaundering reports each context argument that some path reaches
// holding a Background/TODO value, once, naming the earliest such
// assignment.
func checkLaundering(pass *analysis.Pass, fn ast.Node) {
	g := pass.CFG(fn)
	if g == nil {
		return
	}
	res := g.Pairs(func(n ast.Node) []flow.Event { return classifyNode(pass, n) })
	reported := make(map[ast.Node]bool)
	for _, leak := range res.UseLeaks {
		if reported[leak.At] {
			continue
		}
		reported[leak.At] = true
		obj := leak.Key.(types.Object)
		var rhs string
		eachDef(pass, leak.Acquire, func(o types.Object, val ast.Expr) {
			if name, ok := isDetachCall(pass, val); ok && o == obj {
				rhs = name
			}
		})
		pass.Reportf(leak.At.Pos(),
			"context %q may be %s here (reassigned at line %d): the callee runs detached from the caller's cancellation on that path",
			obj.Name(), rhs, pass.Fset.Position(leak.Acquire.Pos()).Line)
	}
}

// classifyNode emits the laundering events of one shallow CFG node in
// evaluation order: a use for every context-typed identifier passed as
// a call argument, then, for every context variable the node defines,
// a release followed by an acquire when the new value is
// context.Background() or context.TODO().
func classifyNode(pass *analysis.Pass, n ast.Node) []flow.Event {
	var events []flow.Event
	flow.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil && isContextType(obj.Type()) {
						events = append(events, flow.Event{Kind: flow.EventUse, Key: obj, Node: id})
					}
				}
			}
		}
		return true
	})
	define := func(def ast.Node) {
		eachDef(pass, def, func(obj types.Object, val ast.Expr) {
			events = append(events, flow.Event{Kind: flow.EventRelease, Key: obj, Node: def})
			if _, ok := isDetachCall(pass, val); ok {
				events = append(events, flow.Event{Kind: flow.EventAcquire, Key: obj, Node: def})
			}
		})
	}
	if decl, ok := n.(*ast.DeclStmt); ok {
		for _, spec := range decl.Decl.(*ast.GenDecl).Specs {
			define(spec)
		}
	} else {
		define(n)
	}
	return events
}

// eachDef calls f for every context variable that def (an assignment,
// a var spec, or a range clause) binds, with the expression bound to
// it, or nil when the right-hand side does not pair one to one.
func eachDef(pass *analysis.Pass, def ast.Node, f func(obj types.Object, val ast.Expr)) {
	var lhs, rhs []ast.Expr
	switch def := def.(type) {
	case *ast.AssignStmt:
		lhs, rhs = def.Lhs, def.Rhs
	case *ast.ValueSpec:
		for _, name := range def.Names {
			lhs = append(lhs, name)
		}
		rhs = def.Values
	case *ast.RangeStmt:
		lhs = []ast.Expr{def.Key, def.Value}
	}
	for i, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.ObjectOf(id); obj != nil && isContextType(obj.Type()) {
			var val ast.Expr
			if len(rhs) == len(lhs) {
				val = rhs[i]
			}
			f(obj, val)
		}
	}
}

// checkCtxSibling reports a call of module-internal Foo when FooCtx
// (or, failing that, FooWorkerCtx) exists, accepts a context, and Foo
// itself does not.
func checkCtxSibling(pass *analysis.Pass, call *ast.CallExpr) {
	callee := pass.Callee(call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	// Only the module's own API surface (and, for the fixtures, the
	// package under analysis itself): stdlib names stay out of scope.
	if !strings.HasPrefix(callee.Pkg().Path(), "repro/") && callee.Pkg().Path() != "repro" &&
		callee.Pkg() != pass.Pkg {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || hasCtxParam(sig) {
		return
	}
	name := callee.Name()
	if strings.HasSuffix(name, "Ctx") {
		return
	}
	sibling := lookupSibling(callee, name+"Ctx")
	if sibling == nil {
		// par.For's context-taking form also passes fn a worker index.
		sibling = lookupSibling(callee, name+"WorkerCtx")
	}
	if sibling == nil {
		return
	}
	sibSig, ok := sibling.Type().(*types.Signature)
	if !ok || !hasCtxParam(sibSig) {
		return
	}
	kind := "function"
	if sig.Recv() != nil {
		kind = "method"
	}
	pass.Reportf(call.Pos(),
		"call of context-free %s %s from a function that receives a context.Context: use %s so cancellation propagates",
		kind, name, sibling.Name())
}

// hasCtxParam reports whether any parameter of sig is context.Context.
func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// lookupSibling finds a function named name next to callee: a method
// on the same receiver type, or a package-level function in the same
// package.
func lookupSibling(callee *types.Func, name string) *types.Func {
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		named := analysis.NamedOf(recv.Type())
		if named == nil {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
		return nil
	}
	fn, _ := callee.Pkg().Scope().Lookup(name).(*types.Func)
	return fn
}
