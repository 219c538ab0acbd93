package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeEntry builds a cache entry of a given accounted size without a
// real dictionary behind it.
func fakeEntry(id string, size int64) *Entry {
	return &Entry{ID: id, Dict: &core.CompressedDictionary{}, Size: size}
}

func TestCacheHitMissCounters(t *testing.T) {
	var loads atomic.Int64
	c := NewCache(func(id string) (*Entry, error) {
		loads.Add(1)
		return fakeEntry(id, 10), nil
	}, 1<<20, 1)

	for i := 0; i < 3; i++ {
		if _, err := c.GetCtx(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if loads.Load() != 1 || st.Loads != 1 {
		t.Errorf("loads = %d/%d, want 1", loads.Load(), st.Loads)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes != 10 {
		t.Errorf("entries/bytes = %d/%d, want 1/10", st.Entries, st.Bytes)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(func(id string) (*Entry, error) {
		return fakeEntry(id, 10), nil
	}, 25, 1) // room for two 10-byte entries

	mustGet := func(id string) {
		t.Helper()
		if _, err := c.GetCtx(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	mustGet("a")
	mustGet("b")
	mustGet("a") // refresh a: b is now LRU
	mustGet("c") // evicts b
	if !c.Contains("a") || !c.Contains("c") || c.Contains("b") {
		t.Errorf("residency after eviction: a=%v b=%v c=%v, want true/false/true",
			c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCacheOversizeEntryPassesThrough(t *testing.T) {
	c := NewCache(func(id string) (*Entry, error) {
		return fakeEntry(id, 1000), nil
	}, 25, 1)
	ent, err := c.GetCtx(context.Background(), "big")
	if err != nil || ent == nil {
		t.Fatalf("oversize entry not served: %v", err)
	}
	if c.Contains("big") {
		t.Errorf("oversize entry stayed resident past the budget")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Evictions == 0 {
		t.Errorf("bytes = %d evictions = %d after oversize pass-through", st.Bytes, st.Evictions)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var loads atomic.Int64
	gate := make(chan struct{})
	c := NewCache(func(id string) (*Entry, error) {
		loads.Add(1)
		<-gate // hold every waiter on one in-flight load
		return fakeEntry(id, 10), nil
	}, 1<<20, 4)

	const clients = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.GetCtx(context.Background(), "shared"); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("%d loader calls for %d concurrent misses, want 1", n, clients)
	}
}

func TestCacheLoadErrors(t *testing.T) {
	boom := errors.New("boom")
	c := NewCache(func(id string) (*Entry, error) { return nil, boom }, 1<<20, 2)
	if _, err := c.GetCtx(context.Background(), "x"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.GetCtx(context.Background(), "x"); !errors.Is(err, boom) {
		t.Fatalf("second err = %v", err)
	}
	st := c.Stats()
	// Errors are not cached: each Get retries the loader.
	if st.Loads != 2 || st.LoadErrors != 2 || st.Entries != 0 {
		t.Errorf("loads/errors/entries = %d/%d/%d, want 2/2/0", st.Loads, st.LoadErrors, st.Entries)
	}
}

// TestCacheLoadFailureThenSuccessNotPoisoned: a loader that fails
// once must not poison the id — the next Get re-runs the loader, the
// entry becomes resident, and later Gets are hits.
func TestCacheLoadFailureThenSuccessNotPoisoned(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	c := NewCache(func(id string) (*Entry, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return fakeEntry(id, 10), nil
	}, 1<<20, 2)

	if _, err := c.GetCtx(context.Background(), "x"); !errors.Is(err, boom) {
		t.Fatalf("first err = %v, want boom", err)
	}
	if c.Contains("x") {
		t.Fatal("failed load left an entry resident")
	}
	if _, err := c.GetCtx(context.Background(), "x"); err != nil {
		t.Fatalf("second Get after transient failure: %v", err)
	}
	if !c.Contains("x") {
		t.Fatal("successful reload not resident")
	}
	if _, err := c.GetCtx(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Loads != 2 || st.LoadErrors != 1 || st.Hits != 1 {
		t.Errorf("loads/errors/hits = %d/%d/%d, want 2/1/1", st.Loads, st.LoadErrors, st.Hits)
	}
}

// TestCacheRetriesRecoverWithinOneGet: with retries configured, a
// loader that fails transiently succeeds inside a single Get, and the
// retries counter records the backoff attempts.
func TestCacheRetriesRecoverWithinOneGet(t *testing.T) {
	var calls atomic.Int64
	c := NewCache(func(id string) (*Entry, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return fakeEntry(id, 10), nil
	}, 1<<20, 2)
	c.SetLoadRetries(3)

	if _, err := c.GetCtx(context.Background(), "x"); err != nil {
		t.Fatalf("Get with retries = %v, want success on third attempt", err)
	}
	st := c.Stats()
	if st.Loads != 3 || st.LoadErrors != 2 || st.Retries != 2 {
		t.Errorf("loads/errors/retries = %d/%d/%d, want 3/2/2", st.Loads, st.LoadErrors, st.Retries)
	}
	if !c.Contains("x") {
		t.Error("recovered entry not resident")
	}
}

// TestCacheRetrySkipsNotFound: absence is a stable answer — a
// not-found load returns immediately no matter the retry budget.
func TestCacheRetrySkipsNotFound(t *testing.T) {
	var calls atomic.Int64
	c := NewCache(func(id string) (*Entry, error) {
		calls.Add(1)
		return nil, fmt.Errorf("dictionary %q not found: %w", id, fs.ErrNotExist)
	}, 1<<20, 2)
	c.SetLoadRetries(5)

	if _, err := c.GetCtx(context.Background(), "gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("loader called %d times for not-found, want 1", n)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d, want 0", st.Retries)
	}
}

// TestCacheGetCtxWaiterUnblocksOnCancel: a waiter parked on another
// request's in-flight load must return its own ctx error when
// cancelled, while the load itself completes for the initiator.
func TestCacheGetCtxWaiterUnblocksOnCancel(t *testing.T) {
	gate := make(chan struct{})
	loading := make(chan struct{})
	c := NewCache(func(id string) (*Entry, error) {
		close(loading)
		<-gate
		return fakeEntry(id, 10), nil
	}, 1<<20, 1)

	initiatorDone := make(chan error, 1)
	go func() {
		_, err := c.GetCtx(context.Background(), "shared")
		initiatorDone <- err
	}()
	<-loading // the load is in flight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetCtx(ctx, "shared"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-initiatorDone; err != nil {
		t.Fatalf("initiator err = %v; the waiter's cancel must not kill the load", err)
	}
	if !c.Contains("shared") {
		t.Error("completed load not resident after a waiter cancelled")
	}
}

func TestCacheShardingSpreadsKeys(t *testing.T) {
	c := NewCache(func(id string) (*Entry, error) { return fakeEntry(id, 1), nil }, 1<<20, 8)
	for i := 0; i < 64; i++ {
		if _, err := c.GetCtx(context.Background(), fmt.Sprintf("dict-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		if c.shards[i].ll.Len() > 0 {
			used++
		}
		c.shards[i].mu.Unlock()
	}
	if used < 2 {
		t.Errorf("64 keys landed on %d of 8 shards", used)
	}
}
