package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 1000
		hits := make([]atomic.Int32, n)
		For(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d hit %d times", workers, i, got)
			}
		}
	}
}

// TestForItemsRunTogether: with two workers, each of two items waits
// until both have started. The caller is worker 0, so it must spawn
// worker 1 before it claims an item; had it run its share first, item
// 0 would wait for an item nobody had started.
func TestForItemsRunTogether(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() {
		started.Wait()
		close(both)
	}()
	var waited atomic.Int32
	For(2, 2, func(int) {
		started.Done()
		select {
		case <-both:
			waited.Add(1)
		case <-time.After(5 * time.Second):
		}
	})
	if got := waited.Load(); got != 2 {
		t.Fatalf("%d of 2 items saw the other start; the workers ran one after the other", got)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	if called {
		t.Errorf("fn called for empty range")
	}
}

func TestForSingleItem(t *testing.T) {
	var sum atomic.Int64
	For(1, 8, func(i int) { sum.Add(int64(i + 7)) })
	if sum.Load() != 7 {
		t.Errorf("sum = %d", sum.Load())
	}
}

func TestForMoreWorkersThanItems(t *testing.T) {
	var count atomic.Int32
	For(3, 100, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Index != 5 {
					t.Errorf("workers=%d: Index = %d, want 5", workers, pe.Index)
				}
				if pe.Value != "boom" {
					t.Errorf("workers=%d: Value = %v, want boom", workers, pe.Value)
				}
				want := "par: panic on item 5: boom"
				if pe.Error() != want {
					t.Errorf("workers=%d: Error() = %q, want %q", workers, pe.Error(), want)
				}
			}()
			For(8, workers, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForPanicDrainsRemainingItems(t *testing.T) {
	// Multi-worker: items other than the panicking one must still run
	// exactly once before For re-panics — no worker abandons the queue.
	var count atomic.Int32
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		For(64, 4, func(i int) {
			if i == 0 {
				panic("first")
			}
			count.Add(1)
		})
	}()
	if got := count.Load(); got != 63 {
		t.Errorf("non-panicking items run = %d, want 63", got)
	}
}

func TestForWorkerCtxCancelMidRunReturnsPartialCount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count atomic.Int32
	done, err := ForWorkerCtx(ctx, 1000, 4, func(_, i int) {
		if count.Add(1) == 8 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("err = nil after mid-run cancel")
	}
	if done != int(count.Load()) {
		t.Errorf("done = %d, fn completed %d items", done, count.Load())
	}
	if done == 0 || done >= 1000 {
		t.Errorf("done = %d, want a partial count", done)
	}
}

func TestForWorkerCtxSingleWorkerStopsBetweenItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	done, err := ForWorkerCtx(ctx, 100, 1, func(_, i int) {
		ran++
		if i == 9 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("err = nil")
	}
	if done != 10 || ran != 10 {
		t.Errorf("done/ran = %d/%d, want 10/10 (cancel takes effect before the next item)", done, ran)
	}
}

func TestWorkersClampsToGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	if got := Workers(0, 1000); got != 2 {
		t.Errorf("Workers(0, 1000) = %d under GOMAXPROCS(2), want 2", got)
	}
	if got := Workers(-3, 1000); got != 2 {
		t.Errorf("Workers(-3, 1000) = %d under GOMAXPROCS(2), want 2", got)
	}
	if got := Workers(0, 1); got != 1 {
		t.Errorf("Workers(0, 1) = %d, want 1 (clamped to n)", got)
	}
	if got := Workers(7, 3); got != 3 {
		t.Errorf("Workers(7, 3) = %d, want 3", got)
	}
	if got := Workers(5, 100); got != 5 {
		t.Errorf("Workers(5, 100) = %d, want 5", got)
	}
}

func TestForWorkersZeroBoundedConcurrency(t *testing.T) {
	// workers <= 0 must clamp to GOMAXPROCS(0), not NumCPU: with
	// GOMAXPROCS(2) no more than 2 items may ever be in flight.
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var inFlight, peak atomic.Int32
	For(200, 0, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency = %d under GOMAXPROCS(2), want <= 2", got)
	}
}

// TestForCtxCompletesAll drives ForWorkerCtx with a callback that ignores
// the worker id, the form callers use when they keep no per-worker
// scratch.
func TestForCtxCompletesAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 500
		hits := make([]atomic.Int32, n)
		done, err := ForWorkerCtx(context.Background(), n, workers, func(_, i int) { hits[i].Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if done != n {
			t.Fatalf("workers=%d: done = %d, want %d", workers, done, n)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d hit %d times", workers, i, got)
			}
		}
	}
}

// TestForCtxCancelledBeforeStart checks that a dead context runs no item
// and that the returned error is the context's own.
func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var count atomic.Int32
		done, err := ForWorkerCtx(ctx, 100, workers, func(_, _ int) { count.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if done != int(count.Load()) {
			t.Errorf("workers=%d: done = %d but fn ran %d times", workers, done, count.Load())
		}
		if count.Load() != 0 {
			t.Errorf("workers=%d: fn ran %d times on a dead context", workers, count.Load())
		}
	}
}

func TestForWorkerCtxCoversAllIndicesWithValidWorkerIDs(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 500
		w := Workers(workers, n)
		hits := make([]atomic.Int32, n)
		var badWorker atomic.Int32
		done, err := ForWorkerCtx(context.Background(), n, workers, func(wk, i int) {
			if wk < 0 || wk >= w {
				badWorker.Store(1)
			}
			hits[i].Add(1)
		})
		if err != nil || done != n {
			t.Fatalf("workers=%d: done=%d err=%v", workers, done, err)
		}
		if badWorker.Load() != 0 {
			t.Fatalf("workers=%d: worker id out of [0,%d)", workers, w)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d hit %d times", workers, i, got)
			}
		}
	}
}

func TestForWorkerCtxScratchNeedsNoLocking(t *testing.T) {
	// Per-worker accumulators written without synchronization must be
	// race-free (verified under -race) and sum to the full range.
	n, workers := 2000, 4
	w := Workers(workers, n)
	sums := make([]int64, w)
	done, err := ForWorkerCtx(context.Background(), n, workers, func(wk, i int) {
		sums[wk] += int64(i)
	})
	if err != nil || done != n {
		t.Fatalf("done=%d err=%v", done, err)
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if want := int64(n) * int64(n-1) / 2; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestForWorkerCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var count atomic.Int32
		done, err := ForWorkerCtx(ctx, 100, workers, func(_, _ int) { count.Add(1) })
		if err == nil {
			t.Fatalf("workers=%d: err = nil, want context.Canceled", workers)
		}
		if done != int(count.Load()) {
			t.Errorf("workers=%d: done = %d but fn ran %d times", workers, done, count.Load())
		}
		if count.Load() != 0 {
			t.Errorf("workers=%d: fn ran %d times on a dead context", workers, count.Load())
		}
	}
}
