package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/retry"
)

// Active health checking: one prober goroutine per member polls the
// replica's /readyz on a jittered cadence (internal/retry with
// Base == Max: constant interval, deterministic half-jitter keyed by
// replica URL, so probers never synchronize into probe storms) and
// feeds outcomes into the membership hysteresis — FailAfter
// consecutive failures demote a member out of the ring, RecoverAfter
// consecutive successes promote it back. Every transition rebuilds
// the ring and kicks the rebalancer; a promotion also resets the
// replica's circuit breaker so recovered capacity is used immediately.
//
// Hysteresis defaults: 3 failures to demote (one lost probe must not
// reshuffle the ring), 2 successes to promote (a replica mid-crash-
// loop must prove itself twice before keys move back to it).
const (
	defaultFailAfter     = 3
	defaultRecoverAfter  = 2
	defaultHealthTimeout = 2 * time.Second
)

// faultReplicaDown makes the prober see a probe failure without any
// process dying: armed (site "replica-down"), a probe fails when the
// optional param selects its replica — param is the 1-based position
// of the replica in the sorted member list, 0 (unset) means every
// replica. Chaos tests drive demotion/promotion cycles with it.
var faultReplicaDown = fault.Register("replica-down")

// prober runs the per-member health-check loops.
type prober struct {
	rt           *Router
	client       *http.Client
	interval     time.Duration
	timeout      time.Duration
	failAfter    int
	recoverAfter int

	mu     sync.Mutex
	stops  map[string]chan struct{}
	closed bool
	wg     sync.WaitGroup
}

func newProber(rt *Router) *prober {
	cfg := rt.cfg
	timeout := cfg.HealthTimeout
	if timeout <= 0 {
		timeout = defaultHealthTimeout
	}
	if timeout > cfg.HealthInterval && cfg.HealthInterval > 0 {
		timeout = cfg.HealthInterval
	}
	failAfter := cfg.FailAfter
	if failAfter <= 0 {
		failAfter = defaultFailAfter
	}
	recoverAfter := cfg.RecoverAfter
	if recoverAfter <= 0 {
		recoverAfter = defaultRecoverAfter
	}
	return &prober{
		rt:           rt,
		client:       cfg.Client,
		interval:     cfg.HealthInterval,
		timeout:      timeout,
		failAfter:    failAfter,
		recoverAfter: recoverAfter,
		stops:        make(map[string]chan struct{}),
	}
}

// sync aligns the per-member probe loops with the current membership:
// new members get a loop, departed members' loops are stopped. Called
// at startup and after every admin membership change.
func (p *prober) sync() {
	members := p.rt.ms.MemberURLs()
	want := make(map[string]bool, len(members))
	for _, url := range members {
		want[url] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for url, stop := range p.stops {
		if !want[url] {
			close(stop)
			delete(p.stops, url)
		}
	}
	for url := range want {
		if _, ok := p.stops[url]; ok {
			continue
		}
		stop := make(chan struct{})
		p.stops[url] = stop
		p.wg.Add(1)
		go p.loop(url, stop)
	}
}

// stop halts every probe loop and waits for them to exit.
func (p *prober) stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for url, stop := range p.stops {
		close(stop)
		delete(p.stops, url)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// loop is one member's probe cycle. The cadence jitters around the
// configured interval deterministically per (replica, cycle).
func (p *prober) loop(url string, stop chan struct{}) {
	defer p.wg.Done()
	cadence := retry.Backoff{Base: p.interval, Max: p.interval}
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-time.After(cadence.Delay(url, n)):
		}
		ok := p.probeOnce(url)
		transitioned, nowUp := p.rt.ms.ReportProbe(url, ok, p.failAfter, p.recoverAfter)
		if !transitioned {
			continue
		}
		if nowUp {
			// Tier-level recovery outranks request-level suspicion: a
			// freshly promoted replica starts with a closed circuit.
			p.rt.breakers.get(url).reset()
		}
		p.rt.reb.Kick()
	}
}

// probeOnce performs one /readyz probe. The replica-down fault site is
// consulted first (see its comment for the param contract) so chaos
// tests can fail probes without killing processes.
func (p *prober) probeOnce(url string) bool {
	if p.injectedDown(url) {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	// Reading the small body to EOF lets the probe's connection be
	// reused.
	res, err := fetch(ctx, p.client, http.MethodGet, url+"/readyz", nil, nil, 1<<10)
	return err == nil && res.status == http.StatusOK
}

// injectedDown reports whether the replica-down site fails this probe.
// The selection check runs before Hit() so the injection counter only
// counts probes the site actually failed.
func (p *prober) injectedDown(url string) bool {
	sel := int(faultReplicaDown.Param(0))
	if sel != 0 {
		members := p.rt.ms.MemberURLs()
		if sel < 1 || sel > len(members) || members[sel-1] != url {
			return false
		}
	}
	return faultReplicaDown.Hit()
}
