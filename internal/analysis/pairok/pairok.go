// Package pairok implements the resource-pairing analyzer: every
// acquire of a paired resource must be matched by its release on every
// control-flow path out of the function. Two resource families
// underpin the repository's hot paths (DESIGN.md, "Performance
// architecture") and serving tier:
//
//   - sync.Pool Get/Put — a Get whose Put is skipped on an early
//     return silently degrades the pool back to per-call allocation,
//     exactly the regression the pooling exists to prevent;
//   - sync.Mutex / sync.RWMutex Lock/Unlock and RLock/RUnlock — a
//     branch that returns while holding a shard lock deadlocks the
//     cache.
//
// The analysis runs over the function's CFG (internal/analysis/flow):
// an acquire is flagged when any path — early return, panic edge, a
// branch that only releases on one side — reaches the function exit
// with the resource still held. Deferred releases count on every exit
// path, mirroring the runtime: `defer mu.Unlock()` satisfies the
// analyzer where a trailing Unlock after a conditional return does
// not.
//
// Ownership transfer is recognized: an acquire whose result is
// returned, stored into a field, slice slot, map, or channel, or
// consumed by an enclosing expression hands the resource onward and is
// not tracked — this is how handoff APIs like parseBehavior (caller
// must Put) stay clean. Functions that intentionally return holding a lock
// document themselves with //lint:ignore pairok <reason>.
package pairok

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the pairok pass.
var Analyzer = &analysis.Analyzer{
	Name: "pairok",
	Doc: "sync.Pool Get/Put and mutex Lock/Unlock must pair on every " +
		"control-flow path (early returns and panics included)",
	Run: run,
}

// pairClass is one acquire/release vocabulary.
type pairClass struct {
	acquire, release string
	// what names the resource in diagnostics.
	what string
	// recvCheck restricts the receiver type.
	recvCheck func(t types.Type) bool
}

var classes = []pairClass{
	{acquire: "Get", release: "Put", what: "sync.Pool Get", recvCheck: isSyncType("Pool")},
	{acquire: "Lock", release: "Unlock", what: "Lock", recvCheck: isSyncLocker},
	{acquire: "RLock", release: "RUnlock", what: "RLock", recvCheck: isSyncType("RWMutex")},
}

// isSyncType matches sync.<name> or a pointer to it.
func isSyncType(name string) func(types.Type) bool {
	return func(t types.Type) bool {
		named := analysis.NamedOf(t)
		if named == nil {
			return false
		}
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
	}
}

// isSyncLocker matches sync.Mutex and sync.RWMutex (whose write lock
// uses the same Lock/Unlock names).
func isSyncLocker(t types.Type) bool {
	return isSyncType("Mutex")(t) || isSyncType("RWMutex")(t)
}

func run(pass *analysis.Pass) error {
	pass.ForEachFunc(func(fn ast.Node, body *ast.BlockStmt) {
		g := pass.CFG(fn)
		if g == nil {
			return
		}
		handoff := handoffObjects(pass, body)
		res := g.Pairs(func(n ast.Node) []flow.Event {
			return classifyNode(pass, n, handoff)
		})
		for _, leak := range res.ExitLeaks {
			key := leak.Key.(pairKey)
			pass.Reportf(leak.Acquire.Pos(),
				"%s on %s is not matched by %s on every path to the function exit "+
					"(early return, panic, or a branch that skips the release)",
				key.what, key.name, key.release)
		}
	})
	return nil
}

// pairKey identifies one resource: the receiver's canonical spelling
// plus the pair class, so mu.Lock pairs with mu.Unlock but not with
// other.Unlock, and RLock never pairs with Unlock.
type pairKey struct {
	name    string
	what    string
	release string
}

// handoffObjects finds local variables whose value leaves the
// function's hands: returned, stored into a field / slice slot / map
// entry / dereference, sent on a channel, or placed in a composite
// literal. An acquire bound to such a variable transfers ownership
// (the caller or the enclosing structure is now responsible for the
// release), so it is not tracked. Passing the variable as a plain call
// argument is not a handoff — that is what the release call itself
// looks like.
func handoffObjects(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				mark(res)
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(elt)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if i < len(n.Rhs) {
						mark(n.Rhs[i])
					} else if len(n.Rhs) == 1 {
						mark(n.Rhs[0])
					}
				}
			}
		}
		return true
	})
	return out
}

// classifyNode emits pairing events for every call in the shallow
// subtree of one CFG node.
func classifyNode(pass *analysis.Pass, n ast.Node, handoff map[types.Object]bool) []flow.Event {
	var events []flow.Event
	flow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		for i := range classes {
			c := &classes[i]
			var kind flow.EventKind
			switch sel.Sel.Name {
			case c.acquire:
				kind = flow.EventAcquire
			case c.release:
				kind = flow.EventRelease
			default:
				continue
			}
			if !calleeMatches(pass, sel, c) {
				continue
			}
			if kind == flow.EventAcquire && (escapes(n, call) || boundToHandoff(pass, n, call, handoff)) {
				continue
			}
			key := pairKey{name: recvString(sel.X), what: c.what, release: c.release}
			events = append(events, flow.Event{Kind: kind, Key: key, Node: call})
			break
		}
		return true
	})
	return events
}

// calleeMatches checks the receiver type against the class (method
// sets resolve through pointers automatically via the selection).
func calleeMatches(pass *analysis.Pass, sel *ast.SelectorExpr, c *pairClass) bool {
	if _, ok := pass.ObjectOf(sel.Sel).(*types.Func); !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	return c.recvCheck(t)
}

// escapes reports whether an acquire's result leaves the function's
// hands at its own statement: returned, assigned to anything but a
// plain local identifier, or consumed by an enclosing expression.
// Those transfer ownership; tracking them would flag every
// constructor-style wrapper.
func escapes(stmt ast.Node, call *ast.CallExpr) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		// `mu.Lock()` / bare `p.Get()`: the result (if any) is
		// dropped, the resource is held here.
		return s.X != call && !isDirectChild(s.X, call)
	case *ast.AssignStmt:
		// Track only `x := p.Get()` / `x = p.Get()` shapes with
		// identifier targets; field stores and tuple mixes escape.
		for i, rhs := range s.Rhs {
			if rhs == call || isDirectChild(rhs, call) {
				if i < len(s.Lhs) {
					_, isIdent := s.Lhs[i].(*ast.Ident)
					return !isIdent
				}
				return true
			}
		}
		return true
	default:
		// Return statements, composite literals, call arguments, …
		return true
	}
}

// boundToHandoff reports whether the acquire's result is assigned to
// a variable that handoffObjects marked as leaving the function.
func boundToHandoff(pass *analysis.Pass, stmt ast.Node, call *ast.CallExpr, handoff map[types.Object]bool) bool {
	s, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, rhs := range s.Rhs {
		if rhs != call && !isDirectChild(rhs, call) {
			continue
		}
		if i >= len(s.Lhs) {
			return false
		}
		id, ok := s.Lhs[i].(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.ObjectOf(id)
		return obj != nil && handoff[obj]
	}
	return false
}

// isDirectChild reports whether call sits under e through type
// assertions or conversions only (`pool.Get().(*[]byte)`).
func isDirectChild(e ast.Expr, call *ast.CallExpr) bool {
	for {
		switch x := e.(type) {
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			return x == call
		default:
			return false
		}
	}
}

// recvString renders the receiver expression canonically: selector
// chains keep their spelling ("m.pool", "sh.mu"); anything else falls
// back to a position-independent best effort.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return recvString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return recvString(e.X)
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.IndexExpr:
		return recvString(e.X) + "[" + recvString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return recvString(e.Fun) + "()"
	default:
		return "<expr>"
	}
}
