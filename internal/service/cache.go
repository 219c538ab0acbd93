package service

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/retry"
)

// Entry is one resident dictionary: the compressed form, the input
// count it was stored with, and its accounted size in bytes.
type Entry struct {
	ID      string
	Dict    *core.CompressedDictionary
	NInputs int
	Size    int64
}

// Loader materializes a dictionary by id (for the server: decode
// <dir>/<id>.dict). It is called at most once per id at a time — the
// cache deduplicates concurrent loads.
type Loader func(id string) (*Entry, error)

// loadBackoff bounds loader retries: the base doubles per attempt up
// to the cap, and the actual sleep is the shared deterministic
// half-jittered backoff (internal/retry) keyed by dictionary id.
var loadBackoff = retry.Backoff{
	Base: 10 * time.Millisecond,
	Max:  250 * time.Millisecond,
}

// Cache is a sharded, concurrency-safe LRU over compressed
// dictionaries with byte-size accounting. Each shard holds its own
// lock, recency list and byte budget (capacity / #shards), so hot
// lookups on distinct dictionaries never contend. Loads go through a
// singleflight gate per id: when N requests miss on the same cold
// dictionary, one loader call runs and the other N−1 wait for it.
// Failed loads are never cached — an error entry would poison every
// later request for the id — and transient failures retry with capped
// exponential backoff inside the singleflight, so a blip costs one
// gate, not a thundering herd.
type Cache struct {
	loader   Loader
	shards   []cacheShard
	shardCap int64
	// maxRetries is how many times one GetCtx re-invokes a failing loader
	// after its first attempt (0 = no retries). Not-found errors are
	// terminal and never retried: absence is a stable answer.
	maxRetries int

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	loads      atomic.Int64
	loadErrors atomic.Int64
	retries    atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	ll       *list.List // of *Entry; front = most recently used
	byID     map[string]*list.Element
	bytes    int64
	inflight map[string]*loadCall
}

type loadCall struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// NewCache builds a cache over loader with the given total byte
// capacity split evenly across shards.
func NewCache(loader Loader, capBytes int64, shards int) *Cache {
	if shards <= 0 {
		shards = 8
	}
	if capBytes <= 0 {
		capBytes = 256 << 20
	}
	shardCap := capBytes / int64(shards)
	if shardCap < 1 {
		shardCap = 1
	}
	c := &Cache{loader: loader, shards: make([]cacheShard, shards), shardCap: shardCap}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].byID = make(map[string]*list.Element)
		c.shards[i].inflight = make(map[string]*loadCall)
	}
	return c
}

// SetLoadRetries sets how many times a failing load is retried within
// one GetCtx (see maxRetries). Call before the cache starts serving.
func (c *Cache) SetLoadRetries(n int) {
	if n < 0 {
		n = 0
	}
	c.maxRetries = n
}

func (c *Cache) shardOf(id string) *cacheShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &c.shards[int(h.Sum32())%len(c.shards)]
}

// GetCtx returns the dictionary for id, loading it on a miss.
// Concurrent misses on the same id share one loader call. The returned
// entry stays valid even if the cache evicts it later.
//
// Cancellation is cooperative: a waiter piggybacking on another
// request's in-flight load stops waiting when ctx is done (the load
// itself keeps running for whoever else wants it), and the retry loop
// of a load this call owns checks ctx before every sleep and attempt.
// The initiating caller's ctx governs the shared load — if it dies
// mid-load, waiters receive the load's error.
func (c *Cache) GetCtx(ctx context.Context, id string) (*Entry, error) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	if el, ok := sh.byID[id]; ok {
		sh.ll.MoveToFront(el)
		sh.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*Entry), nil
	}
	if call, ok := sh.inflight[id]; ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		select {
		case <-call.done:
			return call.ent, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &loadCall{done: make(chan struct{})}
	sh.inflight[id] = call
	sh.mu.Unlock()
	c.misses.Add(1)

	ent, err := c.load(ctx, id)
	call.ent, call.err = ent, err

	sh.mu.Lock()
	delete(sh.inflight, id)
	if err == nil {
		sh.byID[id] = sh.ll.PushFront(ent)
		sh.bytes += ent.Size
		// Evict least-recently-used entries until the shard fits its
		// budget. An entry larger than the whole budget passes through:
		// it serves this request and leaves nothing resident.
		for sh.bytes > c.shardCap && sh.ll.Len() > 0 {
			back := sh.ll.Back()
			ev := back.Value.(*Entry)
			sh.ll.Remove(back)
			delete(sh.byID, ev.ID)
			sh.bytes -= ev.Size
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	close(call.done)
	return ent, err
}

// load runs the loader with up to maxRetries retries behind the
// singleflight gate. Every attempt counts one load (and one loadError
// on failure) so the counters tell the true disk-traffic story, and
// the retries counter feeds ddd_retries_total.
func (c *Cache) load(ctx context.Context, id string) (*Entry, error) {
	var ent *Entry
	var err error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		c.loads.Add(1)
		ent, err = c.loader(id)
		if err == nil {
			return ent, nil
		}
		c.loadErrors.Add(1)
		if attempt >= c.maxRetries || !retryable(err) {
			return nil, err
		}
		c.retries.Add(1)
		select {
		case <-time.After(loadBackoff.Delay(id, attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// retryable reports whether a loader failure is worth retrying. A
// missing file is a stable answer; everything else (I/O error, torn
// read, injected fault) is treated as transient.
func retryable(err error) bool {
	return !errors.Is(err, fs.ErrNotExist)
}

// Invalidate drops id from the cache if resident, so the next GetCtx
// reloads from disk. Used after a snapshot install replaces the
// on-disk file; an in-flight load of the old file may still complete
// and briefly re-cache it, which is acceptable staleness — the entry
// it caches was valid when its load began.
func (c *Cache) Invalidate(id string) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byID[id]; ok {
		ent := el.Value.(*Entry)
		sh.ll.Remove(el)
		delete(sh.byID, id)
		sh.bytes -= ent.Size
		c.evictions.Add(1)
	}
}

// Contains reports whether id is resident without promoting it.
func (c *Cache) Contains(id string) bool {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.byID[id]
	return ok
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Loads      int64 `json:"loads"`
	LoadErrors int64 `json:"load_errors"`
	Retries    int64 `json:"retries"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Capacity   int64 `json:"capacity"`
	Shards     int   `json:"shards"`
}

// Stats snapshots the cache counters and residency.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Loads:      c.loads.Load(),
		LoadErrors: c.loadErrors.Load(),
		Retries:    c.retries.Load(),
		Evictions:  c.evictions.Load(),
		Capacity:   c.shardCap * int64(len(c.shards)),
		Shards:     len(c.shards),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += sh.ll.Len()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}
