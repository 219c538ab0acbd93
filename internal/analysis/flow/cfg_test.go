package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load parses and type-checks one import-free source string and
// returns the named function's declaration.
func load(t *testing.T, src, fn string) (*token.FileSet, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fset, info, fd
		}
	}
	t.Fatalf("no function %q", fn)
	return nil, nil, nil
}

// reachable walks the graph from Entry.
func reachable(g *Graph) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	_, _, fd := load(t, `package p
func f(a int) int {
	b := a + 1
	return b
}`, "f")
	g := New(fd)
	if g == nil {
		t.Fatal("nil graph")
	}
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d, want 1", len(g.Exit.Preds))
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfBothArmsReachExit(t *testing.T) {
	_, _, fd := load(t, `package p
func f(a int) int {
	if a > 0 {
		return 1
	}
	return 2
}`, "f")
	g := New(fd)
	// Two returns: both edge to exit.
	if got := len(g.Exit.Preds); got != 2 {
		t.Fatalf("exit preds = %d, want 2", got)
	}
}

func TestCFGForLoopHasBackEdge(t *testing.T) {
	_, _, fd := load(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	g := New(fd)
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no for.head block")
	}
	// The head must be its own transitive successor (the back edge
	// through body and post).
	seen := make(map[*Block]bool)
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		for _, s := range b.Succs {
			if s == head {
				return true
			}
			if !seen[s] {
				seen[s] = true
				if walk(s) {
					return true
				}
			}
		}
		return false
	}
	if !walk(head) {
		t.Fatal("for.head has no back edge")
	}
}

func TestCFGPanicEdgesToExit(t *testing.T) {
	_, _, fd := load(t, `package p
func f(a int) int {
	if a < 0 {
		panic("negative")
	}
	return a
}`, "f")
	g := New(fd)
	if got := len(g.Exit.Preds); got != 2 {
		t.Fatalf("exit preds = %d, want 2 (panic edge + return)", got)
	}
}

func TestCFGDeferredRecorded(t *testing.T) {
	_, _, fd := load(t, `package p
func cleanup() {}
func f() {
	defer cleanup()
	defer cleanup()
}`, "f")
	g := New(fd)
	if got := len(g.Deferred); got != 2 {
		t.Fatalf("deferred = %d, want 2", got)
	}
}

func TestCFGRangeHeadHoldsRangeStmt(t *testing.T) {
	_, _, fd := load(t, `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`, "f")
	g := New(fd)
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "range.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no range.head block")
	}
	if len(head.Nodes) != 1 {
		t.Fatalf("range.head nodes = %d, want 1", len(head.Nodes))
	}
	r, ok := head.Nodes[0].(*ast.RangeStmt)
	if !ok {
		t.Fatalf("range.head node is %T, want *ast.RangeStmt", head.Nodes[0])
	}
	// Parts must exclude the body: no statement of the loop body may
	// be visited through the head node.
	for _, p := range Parts(r) {
		ast.Inspect(p, func(n ast.Node) bool {
			if n != nil && r.Body.Pos() <= n.Pos() && n.Pos() < r.Body.End() {
				t.Fatalf("Parts leaked a body node: %T", n)
			}
			return true
		})
	}
}

func TestCFGSwitchAllCasesJoin(t *testing.T) {
	for _, src := range []string{`package p
func f(a int) int {
	out := 0
	switch a {
	case 1:
		out = 1
	case 2:
		out = 2
	default:
		out = 3
	}
	return out
}`, `package p
func f(a any) int {
	out := 0
	switch v := a.(type) {
	case int:
		out = v
	case string:
		out = len(v)
	default:
		out = 3
	}
	return out
}`} {
		_, _, fd := load(t, src, "f")
		g := New(fd)
		// With a default, exactly one return path to exit.
		if got := len(g.Exit.Preds); got != 1 {
			t.Fatalf("exit preds = %d, want 1", got)
		}
		cases := 0
		for _, b := range g.Blocks {
			if b.Kind == "case" {
				cases++
			}
		}
		if cases != 3 {
			t.Fatalf("case blocks = %d, want 3", cases)
		}
	}
}

// classify acquires on calls of acquire(), releases on release(),
// keyed by a single shared resource.
func testClassifier(n ast.Node) []Event {
	var events []Event
	Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		switch id.Name {
		case "acquire":
			events = append(events, Event{Kind: EventAcquire, Key: "res", Node: call})
		case "release":
			events = append(events, Event{Kind: EventRelease, Key: "res", Node: call})
		case "use":
			events = append(events, Event{Kind: EventUse, Key: "res", Node: call})
		}
		return true
	})
	return events
}

const pairSrc = `package p
func acquire() {}
func release() {}
func use()     {}
func leakOnBranch(ok bool) {
	acquire()
	if !ok {
		return
	}
	release()
}
func pairedBothArms(ok bool) {
	acquire()
	if !ok {
		release()
		return
	}
	release()
}
func deferredRelease() {
	acquire()
	defer release()
	panic("boom")
}
func useWhileHeld() {
	acquire()
	use()
	release()
}
func deferredUse() {
	acquire()
	defer use()
	release()
}
`

func TestPairsBranchLeak(t *testing.T) {
	_, _, fd := load(t, pairSrc, "leakOnBranch")
	res := New(fd).Pairs(testClassifier)
	if len(res.ExitLeaks) != 1 {
		t.Fatalf("exit leaks = %d, want 1", len(res.ExitLeaks))
	}
}

func TestPairsBothArmsClean(t *testing.T) {
	_, _, fd := load(t, pairSrc, "pairedBothArms")
	res := New(fd).Pairs(testClassifier)
	if len(res.ExitLeaks) != 0 {
		t.Fatalf("exit leaks = %d, want 0", len(res.ExitLeaks))
	}
}

func TestPairsDeferCoversPanicEdge(t *testing.T) {
	_, _, fd := load(t, pairSrc, "deferredRelease")
	res := New(fd).Pairs(testClassifier)
	if len(res.ExitLeaks) != 0 {
		t.Fatalf("exit leaks = %d, want 0 (defer covers the panic edge)", len(res.ExitLeaks))
	}
}

func TestPairsUseWhileHeld(t *testing.T) {
	_, _, fd := load(t, pairSrc, "useWhileHeld")
	res := New(fd).Pairs(testClassifier)
	if len(res.UseLeaks) != 1 {
		t.Fatalf("use leaks = %d, want 1", len(res.UseLeaks))
	}
	if len(res.ExitLeaks) != 0 {
		t.Fatalf("exit leaks = %d, want 0", len(res.ExitLeaks))
	}
}

// defClassifier models a reaching-definitions client on Pairs, the way
// ctxflow uses it: every assignment to a releases it, an assignment
// from g() then acquires it, and a return statement uses it.
func defClassifier(n ast.Node) []Event {
	var events []Event
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "a" {
				continue
			}
			events = append(events, Event{Kind: EventRelease, Key: "a", Node: n})
			if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "g" {
					events = append(events, Event{Kind: EventAcquire, Key: "a", Node: n})
				}
			}
		}
	case *ast.ReturnStmt:
		events = append(events, Event{Kind: EventUse, Key: "a", Node: n})
	}
	return events
}

const defSrc = `package p
func g() int { return 1 }
func join(a int, cond bool) int {
	a = g()
	if cond {
		a = g()
	}
	return a + 1
}
func kill(a int) int {
	a = g()
	a = g()
	return a
}
`

// TestPairsBranchJoinKeepsBoth checks the merge: the acquire before
// the if and the one inside its branch both reach the return.
func TestPairsBranchJoinKeepsBoth(t *testing.T) {
	fset, _, fd := load(t, defSrc, "join")
	res := New(fd).Pairs(defClassifier)
	if len(res.UseLeaks) != 2 {
		t.Fatalf("use leaks = %d, want 2 (both assignments reach the join)", len(res.UseLeaks))
	}
	for i, want := range []int{4, 6} {
		if got := fset.Position(res.UseLeaks[i].Acquire.Pos()).Line; got != want {
			t.Errorf("use leak %d acquired at line %d, want %d", i, got, want)
		}
	}
}

// TestPairsReleaseKills checks the kill: the second assignment
// releases the first one's acquire, so only the second reaches.
func TestPairsReleaseKills(t *testing.T) {
	fset, _, fd := load(t, defSrc, "kill")
	res := New(fd).Pairs(defClassifier)
	if len(res.UseLeaks) != 1 {
		t.Fatalf("use leaks = %d, want 1 (the second assignment killed the first)", len(res.UseLeaks))
	}
	if got := fset.Position(res.UseLeaks[0].Acquire.Pos()).Line; got != 12 {
		t.Fatalf("use leak acquired at line %d, want 12", got)
	}
}

// TestPairsDeferUseInPlace checks that a deferred call's use applies
// where the defer stands (Go evaluates its arguments there), while the
// resource is still held.
func TestPairsDeferUseInPlace(t *testing.T) {
	_, _, fd := load(t, pairSrc, "deferredUse")
	res := New(fd).Pairs(testClassifier)
	if len(res.UseLeaks) != 1 {
		t.Fatalf("use leaks = %d, want 1", len(res.UseLeaks))
	}
	if len(res.ExitLeaks) != 0 {
		t.Fatalf("exit leaks = %d, want 0", len(res.ExitLeaks))
	}
}
