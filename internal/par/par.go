// Package par provides the bounded fork-join helper used to fan
// Monte-Carlo samples out across CPUs. Work items are indexed, so each
// item can derive its own deterministic random stream and results land
// in preallocated slots — runs are reproducible under any GOMAXPROCS.
// The calling goroutine is worker 0: a fan-out over k workers starts
// k−1 goroutines and works alongside them rather than parking.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PanicError is how a panic inside a For worker surfaces on the caller
// goroutine: For recovers worker panics, records the first one together
// with the index of the item that raised it, waits for the remaining
// workers to drain, and re-panics with this wrapper. Without the
// recovery, a worker panic would crash the whole process from a
// goroutine with no useful stack linkage to the For call site — and
// leave sibling workers writing into shared slots while the runtime
// unwinds.
type PanicError struct {
	// Index is the work item whose fn(i) panicked.
	Index int
	// Value is the original panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic on item %d: %v", e.Index, e.Value)
}

// Workers returns the effective worker count For/ForWorkerCtx use for n
// items: workers when positive, else GOMAXPROCS(0) — the scheduler's
// actual parallelism budget, not the machine's NumCPU, so a process
// confined with GOMAXPROCS=k never oversubscribes — clamped to n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS(0); see Workers), the caller being
// one of them. It returns when all items finish. fn must be safe for
// concurrent invocation on distinct indices.
//
// If fn panics, For re-panics on the calling goroutine with a
// *PanicError carrying the panicking item's index and the original
// panic value. When several items panic concurrently, the first
// recovered one wins; items already started still run to completion
// (or their own recovery) before For unwinds, so no worker is left
// touching caller-owned slots after For returns.
func For(n, workers int, fn func(i int)) {
	_, _ = ForWorkerCtx(context.Background(), n, workers, func(_, i int) { fn(i) })
}

// ForWorkerCtx is For with cooperative cancellation, for callers that
// keep per-worker scratch: fn receives the worker index w in addition
// to the item index i, with 0 <= w < Workers(workers, n). Each worker
// invokes fn sequentially, so state keyed by w (reusable buffers, RNG
// streams, simulation engines) needs no further synchronization; items
// are still claimed dynamically, so which items a worker sees is
// scheduling-dependent — results must not depend on the (w, i)
// pairing.
//
// Worker 0 is the calling goroutine. It claims its first item only
// after spawning workers 1..k−1, so k items that each wait until the
// others have started all run to completion.
//
// Workers check ctx between items and stop claiming new ones once ctx
// is done. Items already started run to completion — fn is never
// interrupted mid-item — so every slot written by fn is fully written.
// It returns the number of items that completed and ctx.Err() (nil
// when all n items ran). The completed count is exact but which items
// completed under a mid-run cancellation depends on scheduling; callers
// that need a usable partial result must track per-item completion
// themselves.
//
// Panic semantics match For: the first recovered worker panic
// re-panics on the caller as a *PanicError after the join.
func ForWorkerCtx(ctx context.Context, n, workers int, fn func(w, i int)) (int, error) {
	if n <= 0 {
		return 0, ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		item := func(i int) { fn(0, i) }
		done := 0
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return done, err
			}
			call(i, item, nil)
			done++
		}
		return done, ctx.Err()
	}
	var firstPanic atomic.Pointer[PanicError]
	var next, completed atomic.Int64
	worker := func(w int) {
		item := func(i int) { fn(w, i) }
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			call(i, item, &firstPanic)
			completed.Add(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(w)
		}()
	}
	worker(0)
	wg.Wait()
	if pe := firstPanic.Load(); pe != nil {
		panic(pe)
	}
	return int(completed.Load()), ctx.Err()
}

// call invokes fn(i), converting a panic into a *PanicError. With a
// nil sink (the single-worker inline path) the wrapper re-panics
// immediately on the caller; otherwise the first panic is recorded for
// For to re-raise after the join, and the worker moves on so the
// remaining items still drain deterministically.
func call(i int, fn func(int), sink *atomic.Pointer[PanicError]) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		pe := &PanicError{Index: i, Value: r}
		if sink == nil {
			panic(pe)
		}
		sink.CompareAndSwap(nil, pe)
	}()
	fn(i)
}
