package flow

import (
	"go/ast"
)

// EventKind classifies what a CFG node does to a paired resource.
type EventKind uint8

const (
	// EventAcquire starts holding a resource (pool Get, mutex Lock,
	// scratch acquire, taint introduction).
	EventAcquire EventKind = iota + 1
	// EventRelease stops holding it (Put, Unlock, release, sort).
	EventRelease
	// EventUse observes the resource; the analysis reports a Use that
	// any path can reach while the resource is still held.
	EventUse
)

// Event is one acquire/release/use of a keyed resource at a node.
type Event struct {
	Kind EventKind
	// Key identifies the resource. Any comparable value works; keys
	// built from types.Object or canonical expression strings let
	// events pair across distinct AST nodes.
	Key  any
	Node ast.Node
}

// Classifier maps one shallow CFG node to its pairing events, in
// evaluation order. It is called once per block node per fixpoint
// visit, so it must be deterministic and side-effect free; use
// Inspect to walk inside compound nodes.
type Classifier func(n ast.Node) []Event

// Leak is one pairing violation: an acquire that some path carries to
// At (a Use node, or the function exit when At is nil) without an
// intervening release.
type Leak struct {
	Key     any
	Acquire ast.Node
	At      ast.Node
}

// PairResult is the outcome of Pairs.
type PairResult struct {
	// ExitLeaks are acquires still (possibly) held on some path to the
	// function exit after deferred releases run — early returns and
	// panic edges included.
	ExitLeaks []Leak
	// UseLeaks are Use events reachable while the key is still held.
	UseLeaks []Leak
}

// pairState maps key → the set of acquire nodes that may be live.
type pairState map[any]map[ast.Node]bool

func (ps pairState) clone() pairState {
	out := make(pairState, len(ps))
	for k, nodes := range ps {
		m := make(map[ast.Node]bool, len(nodes))
		for n := range nodes {
			m[n] = true
		}
		out[k] = m
	}
	return out
}

func (ps pairState) merge(src pairState) bool {
	changed := false
	for k, nodes := range src {
		dst := ps[k]
		if dst == nil {
			dst = make(map[ast.Node]bool, len(nodes))
			ps[k] = dst
		}
		for n := range nodes {
			if !dst[n] {
				dst[n] = true
				changed = true
			}
		}
	}
	return changed
}

// Pairs runs a forward may-held analysis: a key acquired on any path
// stays held until a release on that path. A defer statement applies
// only its uses in place, where Go evaluates the deferred arguments;
// its releases replay against the exit state, which is when the
// runtime runs the call. The result is deterministic: leaks are
// ordered by acquire position, then use position.
func (g *Graph) Pairs(classify Classifier) PairResult {
	in := make(map[*Block]pairState, len(g.Blocks))
	for _, blk := range g.Blocks {
		in[blk] = make(pairState)
	}
	apply := func(ps pairState, n ast.Node, uses *[]Leak) {
		_, deferred := n.(*ast.DeferStmt)
		for _, ev := range classify(n) {
			if deferred && ev.Kind != EventUse {
				continue
			}
			switch ev.Kind {
			case EventAcquire:
				held := ps[ev.Key]
				if held == nil {
					held = make(map[ast.Node]bool, 1)
					ps[ev.Key] = held
				}
				held[ev.Node] = true
			case EventRelease:
				delete(ps, ev.Key)
			case EventUse:
				if uses != nil {
					for acq := range ps[ev.Key] {
						*uses = append(*uses, Leak{Key: ev.Key, Acquire: acq, At: ev.Node})
					}
				}
			}
		}
	}

	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	inWork := make(map[*Block]bool, len(g.Blocks))
	for _, blk := range work {
		inWork[blk] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		out := in[blk].clone()
		for _, n := range blk.Nodes {
			apply(out, n, nil)
		}
		for _, s := range blk.Succs {
			if in[s].merge(out) && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}

	var res PairResult
	// Reporting pass over the settled states collects Use leaks.
	for _, blk := range g.Blocks {
		ps := in[blk].clone()
		for _, n := range blk.Nodes {
			apply(ps, n, &res.UseLeaks)
		}
	}
	// Exit: replay deferred releases against the exit in-state, then
	// anything still held leaked.
	exit := in[g.Exit].clone()
	for _, call := range g.Deferred {
		for _, ev := range classify(call) {
			if ev.Kind == EventRelease {
				delete(exit, ev.Key)
			}
		}
	}
	for key, nodes := range exit {
		for acq := range nodes {
			res.ExitLeaks = append(res.ExitLeaks, Leak{Key: key, Acquire: acq})
		}
	}
	sortLeaks(res.ExitLeaks)
	sortLeaks(res.UseLeaks)
	return res
}

func sortLeaks(leaks []Leak) {
	less := func(a, b Leak) bool {
		if a.Acquire.Pos() != b.Acquire.Pos() {
			return a.Acquire.Pos() < b.Acquire.Pos()
		}
		ap, bp := pos(a.At), pos(b.At)
		return ap < bp
	}
	for i := 1; i < len(leaks); i++ {
		for j := i; j > 0 && less(leaks[j], leaks[j-1]); j-- {
			leaks[j], leaks[j-1] = leaks[j-1], leaks[j]
		}
	}
}

func pos(n ast.Node) int {
	if n == nil {
		return -1
	}
	return int(n.Pos())
}
