// Package ctxflow_bad drops or launders the caller's context — the
// patterns ctxflow exists to reject.
package ctxflow_bad

import "context"

func work(ctx context.Context) error { return ctx.Err() }

func blocking(n int) int { return n }

func blockingCtx(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// direct drops the caller's ctx on the spot.
func direct(ctx context.Context) error {
	return work(context.Background()) // want `context.Background\(\) passed onward`
}

// todoLaundering is the same with TODO.
func todoLaundering(ctx context.Context) error {
	return work(context.TODO()) // want `context.TODO\(\) passed onward`
}

// branchDetach is the flow-sensitive case a syntactic check misses:
// the call site passes a plain `ctx` identifier, but on the fallback
// path that variable was reassigned from context.TODO().
func branchDetach(ctx context.Context, fallback bool) error {
	if fallback {
		ctx = context.TODO()
	}
	return work(ctx) // want `may be context.TODO\(\) here \(reassigned at line 33\)`
}

// sibling calls the context-free variant of a callee that has a Ctx
// sibling, detaching the work from cancellation.
func sibling(ctx context.Context, n int) int {
	return blocking(n) // want `use blockingCtx so cancellation propagates`
}

type store struct{ n int }

func (s *store) Flush() { s.n = 0 }

func (s *store) FlushCtx(ctx context.Context) error {
	s.n = 0
	return ctx.Err()
}

// method is the sibling rule for methods.
func method(ctx context.Context, s *store) {
	s.Flush() // want `use FlushCtx so cancellation propagates`
}

// deferDetach passes a possibly laundered ctx to a deferred call: Go
// evaluates the deferred arguments at the defer statement.
func deferDetach(ctx context.Context, fallback bool) {
	if fallback {
		ctx = context.TODO()
	}
	defer work(ctx) // want `context "ctx" may be context.TODO\(\) here \(reassigned at line 62\)`
}

// goDetach hands a possibly laundered ctx to a goroutine.
func goDetach(ctx context.Context, fallback bool) {
	if fallback {
		ctx = context.Background()
	}
	go work(ctx) // want `context "ctx" may be context.Background\(\) here \(reassigned at line 70\)`
}

// condDetach passes a possibly laundered ctx in an if condition.
func condDetach(ctx context.Context, fallback bool) bool {
	if fallback {
		ctx = context.Background()
	}
	if work(ctx) != nil { // want `context "ctx" may be context.Background\(\) here \(reassigned at line 78\)`
		return false
	}
	return true
}

// varSpec binds a fresh root through a var spec and passes it on.
func varSpec(ctx context.Context) error {
	var c = context.Background()
	return work(c) // want `context "c" may be context.Background\(\) here \(reassigned at line 88\)`
}

// loopDetach launders ctx at the end of an iteration: the next
// iteration's call receives it around the loop back edge.
func loopDetach(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		_ = work(ctx) // want `context "ctx" may be context.TODO\(\) here \(reassigned at line 97\)`
		ctx = context.TODO()
	}
}

// relaunder launders twice: only the second laundering reaches the
// call, so the finding names it.
func relaunder(ctx context.Context) error {
	ctx = context.Background()
	ctx = context.TODO()
	return work(ctx) // want `context "ctx" may be context.TODO\(\) here \(reassigned at line 105\)`
}

func fanOut(n int, fn func(i int)) {}

func fanOutWorkerCtx(ctx context.Context, n int, fn func(w, i int)) error { return ctx.Err() }

// workerSibling calls the context-free variant of a callee whose
// context-taking sibling also passes a worker index (par.For's shape).
func workerSibling(ctx context.Context, n int) {
	fanOut(n, func(int) {}) // want `use fanOutWorkerCtx so cancellation propagates`
}
