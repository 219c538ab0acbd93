// Package pairok_clean holds pairing patterns pairok must accept:
// releases on every path, deferred releases, ownership transfer, and
// justified intentional holds.
package pairok_clean

import "sync"

var pool = sync.Pool{New: func() any { b := make([]byte, 64); return &b }}

// straight is the simple paired shape.
func straight() int {
	buf := pool.Get().(*[]byte)
	n := len(*buf)
	pool.Put(buf)
	return n
}

// branches releases on both arms.
func branches(ok bool) int {
	buf := pool.Get().(*[]byte)
	if !ok {
		pool.Put(buf)
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

// bump's deferred Unlock covers the early return and any panic edge.
func (c *counter) bump(limit int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= limit {
		return false
	}
	c.n++
	return true
}

// lockStep releases before every exit without defer.
func (c *counter) lockStep() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	if v == 0 {
		return -1
	}
	return v
}

// checkout transfers ownership to the caller: a handoff API, the
// caller must Put.
func checkout() *[]byte {
	buf := pool.Get().(*[]byte)
	return buf
}

// cached stores the acquired value into a caller-owned slot, whose
// owner releases every slot.
func cached(slots []*[]byte, w int) *[]byte {
	buf := slots[w]
	if buf == nil {
		buf = pool.Get().(*[]byte)
		slots[w] = buf
	}
	return buf
}

type guard struct{ mu sync.Mutex }

// hold documents an intentional acquire-without-release.
func hold(g *guard) {
	//lint:ignore pairok handed to the caller, released by (*guard).done
	g.mu.Lock()
}
