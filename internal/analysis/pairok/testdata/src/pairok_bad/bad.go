// Package pairok_bad leaks paired resources on some control-flow
// path — the patterns pairok exists to reject. Every case here has
// both the acquire and the release syntactically present; only the
// path structure is wrong, which is what a flow-insensitive check
// cannot see.
package pairok_bad

import "sync"

var pool = sync.Pool{New: func() any { b := make([]byte, 64); return &b }}

// branchLeak puts on the happy path only: the early return leaks.
func branchLeak(ok bool) int {
	buf := pool.Get().(*[]byte) // want `sync.Pool Get on pool is not matched by Put on every path`
	if !ok {
		return 0
	}
	n := len(*buf)
	pool.Put(buf)
	return n
}

type counter struct {
	mu sync.Mutex
	n  int
}

// bump returns early while holding the lock.
func (c *counter) bump(limit int) bool {
	c.mu.Lock() // want `Lock on c.mu is not matched by Unlock on every path`
	if c.n >= limit {
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// mustBump leaks on the panic edge; a deferred Unlock would cover it.
func (c *counter) mustBump() {
	c.mu.Lock() // want `Lock on c.mu is not matched by Unlock on every path`
	if c.n < 0 {
		panic("negative count")
	}
	c.n++
	c.mu.Unlock()
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

// read pairs RLock with the writer's Unlock: the read lock is never
// released.
func (t *table) read(k string) int {
	t.mu.RLock() // want `RLock on t.mu is not matched by RUnlock on every path`
	v := t.m[k]
	t.mu.Unlock()
	return v
}
