package service

import (
	"sync"
	"time"
)

// Per-replica circuit breakers: the fast-twitch half of the
// self-healing tier. The health prober (health.go) needs N failed
// probe cycles to take a dying replica out of the ring; until then,
// every hedged request would still burn an attempt (and a connection
// timeout) on it. The breaker reacts at request speed instead: after
// BreakerFailures consecutive transport errors the replica's circuit
// opens and the router's attempt ladder skips it, failing over
// immediately. After a cooldown the breaker admits exactly one probe
// request (half-open); BreakerSuccesses consecutive probe successes
// close the circuit, any probe failure reopens it.
//
// Only transport errors count as breaker failures. A replica that
// answers — even 429/503 — is alive and talking; shedding it is the
// hedging ladder's job, and counting backpressure as death would let
// a load spike open every circuit at once. Cancelled attempts (hedge
// losers) count as nothing at all.
//
// Determinism: admission is a pure function of the breaker's state,
// the configured thresholds, and the clock — no randomness. Half-open
// admits one probe at a time (a CAS-style token under the mutex), so
// concurrent requests cannot race more than one probe onto a
// recovering replica.

// Defaults: three consecutive transport errors open a circuit (one
// flaky dial must not shed a healthy replica), two half-open probe
// successes close it, and an open circuit waits 2s before spending a
// live request probing — comfortably above a replica restart's accept
// gap, well under the prober's demote-then-promote round trip.
const (
	defaultBreakerFailures  = 3
	defaultBreakerSuccesses = 2
	defaultBreakerCooldown  = 2 * time.Second
)

// BreakerState enumerates the circuit states. The numeric values are
// the ddd_breaker_state gauge's encoding.
type BreakerState int32

const (
	BreakerClosed   BreakerState = 0
	BreakerHalfOpen BreakerState = 1
	BreakerOpen     BreakerState = 2
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breaker is one replica's circuit. Zero value is not usable; build
// through a breakerSet.
type breaker struct {
	mu       sync.Mutex
	failN    int // consecutive failures that open the circuit
	succN    int // half-open successes that close it
	cooldown time.Duration
	now      func() time.Time

	state    BreakerState
	fails    int
	succs    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// Allow reports whether a request may be sent to the replica now.
// Closed always admits. Open admits nothing until the cooldown has
// elapsed, at which point the circuit turns half-open and this call
// claims the single probe slot. Half-open admits only when the probe
// slot is free. A true return from a non-closed state MUST be paired
// with a Report call, or the probe slot stays claimed until the next
// cooldown expiry re-opens it.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.succs = 0
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Report records the outcome of an admitted request: ok means the
// attempt reached the replica and got an answer (any status), false
// means a transport error. Outcomes that race a state change the
// breaker already made (a late failure arriving after the circuit
// opened) are ignored — the open timer must not be re-armed by stale
// news.
func (b *breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.failN {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.fails = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.succs++
			if b.succs >= b.succN {
				b.state = BreakerClosed
				b.fails, b.succs = 0, 0
			}
			return
		}
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.succs = 0
	case BreakerOpen:
		// Stale outcome from an attempt admitted before the trip.
	}
}

// Cancelled releases an admitted attempt that ended without a verdict
// (a hedge loser cancelled mid-flight): the half-open probe slot is
// freed without counting a success or a failure, so the next request
// can probe instead of waiting out another cooldown.
func (b *breaker) Cancelled() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// State returns the current circuit state (open circuits whose
// cooldown has elapsed still report open until a request claims the
// half-open probe — the state machine only moves on traffic).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// reset force-closes the circuit. Called when the health prober
// declares the replica up again: the tier-level signal outranks the
// request-level one, and a freshly recovered replica deserves a clean
// failure budget.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails, b.succs = 0, 0
	b.probing = false
}

// breakerSet owns one breaker per replica URL, created on first use so
// admin-joined replicas get circuits without registration ceremony.
type breakerSet struct {
	mu       sync.Mutex
	failN    int
	succN    int
	cooldown time.Duration
	now      func() time.Time
	m        map[string]*breaker
}

// newBreakerSet builds the circuit set from a resolved router config.
func newBreakerSet(cfg *RouterConfig) *breakerSet {
	return &breakerSet{failN: cfg.BreakerFailures, succN: cfg.BreakerSuccesses,
		cooldown: cfg.BreakerCooldown, now: cfg.now, m: make(map[string]*breaker)}
}

func (s *breakerSet) get(replica string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[replica]
	if !ok {
		b = &breaker{failN: s.failN, succN: s.succN, cooldown: s.cooldown, now: s.now}
		s.m[replica] = b
	}
	return b
}

// states snapshots every known circuit, keyed by replica URL.
func (s *breakerSet) states() map[string]BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]BreakerState, len(s.m))
	for rep, b := range s.m {
		out[rep] = b.State()
	}
	return out
}
