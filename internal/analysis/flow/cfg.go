// Package flow builds per-function control-flow graphs and runs the
// one dataflow analysis, acquire/release/use pairing (Graph.Pairs),
// that the flow-sensitive ddd-lint analyzers — ctxflow, pairok,
// detorder — are written against. Like the rest of internal/analysis
// it is stdlib-only (go/ast + go/types), mirroring the shape of
// golang.org/x/tools/go/cfg closely enough that porting to the real
// package later is mechanical.
//
// A Graph has one synthetic Entry and one synthetic Exit block.
// Blocks hold *shallow* nodes: plain statements appear whole, but a
// compound statement contributes only its controlling parts (an if's
// init and cond, a for's init/cond/post, a switch's tag) — its bodies
// become successor blocks. The one exception is *ast.RangeStmt, which
// appears itself as its head block's node so analyzers can inspect the
// ranged expression and key/value variables; its Body still belongs to
// the successor blocks, and classifiers must inspect nodes through
// Parts/Inspect (which know not to descend into it).
//
// return and panic(...) edge to Exit; deferred calls are recorded on
// the Graph and treated by the pairing analysis as running on every
// path to Exit, panic edges included — exactly the Go runtime's
// semantics, and the reason `defer mu.Unlock()` satisfies pairok where
// a trailing Unlock does not. A defer's arguments are still evaluated
// where the statement stands, so its uses apply there.
package flow

import (
	"go/ast"
)

// Block is one basic block: shallow nodes executed in order, then a
// transfer of control to one of Succs.
type Block struct {
	Index int
	// Kind labels the block's role for debugging and tests:
	// "entry", "exit", "body", "if.then", "for.head", "range.head", …
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Deferred holds the call expression of every defer statement in
	// the function, in source order. The pairing analysis replays them
	// against the state at Exit; a defer inside a conditional is
	// treated as always registered, the lenient choice for a
	// may-leak analysis.
	Deferred []*ast.CallExpr
}

// New builds the CFG of fn, which must be an *ast.FuncDecl or
// *ast.FuncLit; it returns nil when fn has no body (declarations
// without bodies, assembly stubs).
func New(fn ast.Node) *Graph {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return nil
	}
	b := &builder{g: &Graph{}, labels: make(map[string]*labelInfo)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = &Block{Kind: "exit"}
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.jump(b.g.Exit) // fall off the end: implicit return
	for _, pg := range b.gotos {
		if li := b.labels[pg.label]; li != nil && li.block != nil {
			edge(pg.from, li.block)
		} else {
			// Unresolved goto (label typo survives parsing): be
			// conservative and route to Exit.
			edge(pg.from, b.g.Exit)
		}
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type labelInfo struct {
	block *Block // goto landing block, created on first definition
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g       *Graph
	cur     *Block // nil after a terminator until the next join point
	targets []*target
	labels  map[string]*labelInfo
	gotos   []pendingGoto
	// pendingLabel carries a label to the construct it prefixes.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a shallow node to the current block, reviving an
// unreachable cursor so dead code still owns its nodes (with an empty
// in-state: no predecessors).
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump terminates the current block with an edge to to.
func (b *builder) jump(to *Block) {
	edge(b.cur, to)
	b.cur = nil
}

// startBlock makes blk current, adding a fall-through edge from the
// previous block when one is live.
func (b *builder) startBlock(blk *Block) {
	edge(b.cur, blk)
	b.cur = blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		li.block = b.newBlock("label." + s.Label.Name)
		b.startBlock(li.block)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, label)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.DeferStmt:
		b.add(s)
		b.g.Deferred = append(b.g.Deferred, s.Call)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, IncDec, Send, Go, Decl, …: straight-line.
		b.add(s)
	}
}

// isPanicCall reports whether e is a direct call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := b.findTarget(name, false); t != nil {
			b.jump(t.brk)
		} else {
			b.jump(b.g.Exit)
		}
	case "continue":
		if t := b.findTarget(name, true); t != nil {
			b.jump(t.cont)
		} else {
			b.jump(b.g.Exit)
		}
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: name})
		b.cur = nil
	case "fallthrough":
		// Handled structurally by switchStmt; nothing to do here.
	}
}

// findTarget resolves break/continue: the innermost target, or the one
// carrying the label; needCont restricts to loops.
func (b *builder) findTarget(label string, needCont bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.add(s.Init)
	b.add(s.Cond)
	cond := b.cur
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(after)
	} else {
		edge(cond, after)
	}
	if len(after.Preds) == 0 {
		b.cur = nil // both arms terminated
	} else {
		b.cur = after
	}
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	b.add(s.Init)
	head := b.newBlock("for.head")
	b.startBlock(head)
	b.add(s.Cond)
	after := b.newBlock("for.after")
	post := b.newBlock("for.post")

	body := b.newBlock("for.body")
	edge(head, body)
	if s.Cond != nil {
		edge(head, after)
	}
	b.targets = append(b.targets, &target{label: label, brk: after, cont: post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	b.jump(post)
	b.cur = post
	b.add(s.Post)
	b.jump(head)
	if len(after.Preds) == 0 {
		b.cur = nil // `for { … }` with no break never falls through
	} else {
		b.cur = after
	}
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.startBlock(head)
	// The RangeStmt itself is the head's node (see package comment):
	// analyzers need X and Key/Value; Parts/Inspect keep them out of
	// the Body, which belongs to the block built below.
	b.add(s)
	after := b.newBlock("range.after")
	edge(head, after) // zero iterations

	body := b.newBlock("range.body")
	edge(head, body)
	b.targets = append(b.targets, &target{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	b.jump(head)
	b.cur = after
}

// switchStmt builds an expression switch (tag is its Tag, which may be
// nil) or a type switch (tag is its Assign statement): head fans out
// to each case, each case body joins at after, and fallthrough edges
// to the next case's body.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, label string) {
	b.add(init)
	b.add(tag)
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
	}
	after := b.newBlock("switch.after")
	type caseBlock struct {
		cc  *ast.CaseClause
		blk *Block
	}
	var cases []caseBlock
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("case")
		edge(head, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		cases = append(cases, caseBlock{cc, blk})
	}
	if !hasDefault {
		edge(head, after)
	}
	b.targets = append(b.targets, &target{label: label, brk: after})
	for i, c := range cases {
		b.cur = c.blk
		fellThrough := false
		for _, st := range c.cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				if i+1 < len(cases) {
					b.jump(cases[i+1].blk)
					fellThrough = true
				}
				break
			}
			b.stmt(st)
		}
		if !fellThrough {
			b.jump(after)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("select.head")
		b.cur = head
	}
	after := b.newBlock("select.after")
	b.targets = append(b.targets, &target{label: label, brk: after})
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock("select.case")
		edge(head, blk)
		b.cur = blk
		b.add(cc.Comm)
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !any {
		// select {} blocks forever.
		edge(head, b.g.Exit)
		b.cur = nil
		return
	}
	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil
	}
}

// Parts returns the sub-nodes of a shallow CFG node that belong to its
// block. For a range head (the *ast.RangeStmt itself) that is Key,
// Value, and X — never the Body, whose statements live in successor
// blocks. For every other node it is the node itself.
func Parts(n ast.Node) []ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		var parts []ast.Node
		if r.Key != nil {
			parts = append(parts, r.Key)
		}
		if r.Value != nil {
			parts = append(parts, r.Value)
		}
		parts = append(parts, r.X)
		return parts
	}
	return []ast.Node{n}
}

// Inspect visits the shallow subtree of a CFG node in source order:
// Parts of n, skipping nested function literal bodies (a FuncLit gets
// its own Graph) — the traversal every classifier should use.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	for _, p := range Parts(n) {
		ast.Inspect(p, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			return f(m)
		})
	}
}
