package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/retry"
)

// Automatic dictionary rebalance: the slow-twitch half of the
// self-healing tier. Whenever the membership view changes (health
// transition, admin join/leave, replicas-file reload) the rebalancer
// reconciles reality against the new ring's desired placement:
//
//  1. inventory — ask every live replica GET /v1/dicts for what it has
//     on disk;
//  2. plan — for each known dictionary whose ring owner does NOT have
//     it, pick a source (the first live replica after the owner in
//     ring order that has the file — for a fresh join that is exactly
//     the previous owner, by the ring's successor property) and record
//     an overlay entry so requests keep routing to the warm source;
//  3. transfer — drive the SHA-256-verified snapshot transfer
//     (snapshot.go) source → owner with bounded concurrency and capped
//     deterministic-jitter retries, clearing each overlay entry as its
//     dictionary lands.
//
// The reconcile is a pure function of observable state, which buys the
// properties the tentpole demands for free:
//
//   - idempotent — re-running against a converged tier plans zero
//     transfers (the owner already has every file);
//   - restart-safe — a router restart reconciles from scratch, so an
//     interrupted rebalance resumes wherever the tier actually is. The
//     journal (JSONL, plan/done/failed records) both documents
//     progress for operators and tells a restarted router to kick an
//     immediate reconcile when its tail holds planned-but-unfinished
//     transfers;
//   - degradation-bounded — between the ring swap and a dictionary's
//     transfer completing, the overlay (plus the router's 404
//     failover) proxies requests to the old owner, so the tier answers
//     correctly the whole time, just without the new owner's cache
//     warmth.
const (
	defaultRebalanceWorkers = 2
	defaultRebalanceRetries = 3
)

// transferBackoff paces per-transfer retries; reconcileBackoff paces
// whole-reconcile re-runs after an incomplete pass (a replica's
// inventory was unreachable or a transfer exhausted its retries).
var (
	transferBackoff  = retry.Backoff{Base: 50 * time.Millisecond, Max: time.Second}
	reconcileBackoff = retry.Backoff{Base: 200 * time.Millisecond, Max: 5 * time.Second}
)

// transferRecord is one journal line.
type transferRecord struct {
	Gen    uint64 `json:"gen"`
	Status string `json:"status"` // "plan" | "done" | "failed"
	Dict   string `json:"dict"`
	From   string `json:"from"`
	To     string `json:"to"`
	Sha    string `json:"sha256,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Error  string `json:"error,omitempty"`
}

// RebalanceStats is the rebalance slice of RouterStats.
type RebalanceStats struct {
	// Generation counts reconcile passes started.
	Generation uint64 `json:"generation"`
	// Pending is the current pass's transfers not yet finished.
	Pending int `json:"pending"`
	// Completed / Failed / Unsourced are lifetime transfer outcomes
	// (Unsourced: no live replica had the dictionary to copy from).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Unsourced int64 `json:"unsourced"`
	// Overlay is how many dictionaries currently route to a warm
	// source instead of their ring owner.
	Overlay int `json:"overlay"`
}

type rebalancer struct {
	rt      *Router
	workers int
	retries int

	ctx    context.Context
	cancel context.CancelFunc
	kick   chan struct{}
	done   chan struct{}

	journalMu sync.Mutex
	journalF  *os.File

	mu      sync.Mutex
	overlay map[string]string // dict id -> warm source replica
	pending int

	gen       atomic.Uint64
	completed atomic.Int64
	failed    atomic.Int64
	unsourced atomic.Int64

	// resume is set when the journal tail holds planned-but-unfinished
	// transfers from a previous process: start() kicks immediately.
	resume bool
}

func newRebalancer(rt *Router) (*rebalancer, error) {
	cfg := rt.cfg
	ctx, cancel := context.WithCancel(context.Background())
	r := &rebalancer{
		rt:      rt,
		workers: cfg.RebalanceWorkers,
		retries: cfg.RebalanceRetries,
		ctx:     ctx,
		cancel:  cancel,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		overlay: make(map[string]string),
	}
	if cfg.JournalPath != "" {
		r.resume = replayJournal(cfg.JournalPath)
		f, err := os.OpenFile(cfg.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("service: rebalance journal: %w", err)
		}
		r.journalF = f
	}
	return r, nil
}

// replayJournal reports whether the journal at path ends with planned
// transfers that never reached a done/failed record — the signature of
// a rebalance interrupted by a router restart. Unreadable or torn
// journals parse tolerantly: scanning stops at the first malformed
// line (a torn tail from a crash mid-append).
func replayJournal(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	open := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec transferRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break
		}
		key := rec.Dict + "\x00" + rec.To
		switch rec.Status {
		case "plan":
			open[key] = true
		case "done", "failed":
			delete(open, key)
		}
	}
	return len(open) > 0
}

// start launches the reconcile loop. The initial kick fires when the
// journal demands a resume or the router runs active health checking
// (self-healing deployments converge on boot; static test routers stay
// quiet until an admin change kicks them).
func (r *rebalancer) start(initialKick bool) {
	go r.loop()
	if initialKick || r.resume {
		r.Kick()
	}
}

// Kick requests a reconcile. Coalescing is free: the channel holds one
// pending kick, and a reconcile already running re-observes membership
// when the queued kick drains.
func (r *rebalancer) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// stopAll cancels in-flight transfers, stops the loop, and closes the
// journal.
func (r *rebalancer) stopAll() {
	r.cancel()
	<-r.done
	r.journalMu.Lock()
	if r.journalF != nil {
		_ = r.journalF.Close()
		r.journalF = nil
	}
	r.journalMu.Unlock()
}

func (r *rebalancer) loop() {
	defer close(r.done)
	failStreak := 0
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-r.kick:
		}
		if r.reconcile() {
			// Incomplete pass: self-rekick with capped backoff so a
			// transient failure converges without an operator and a
			// persistent one does not spin.
			failStreak++
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(reconcileBackoff.Delay("reconcile", failStreak-1)):
				r.Kick()
			}
		} else {
			failStreak = 0
		}
	}
}

// redirect returns the warm source for key while its owner is cold.
func (r *rebalancer) redirect(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.overlay[key]
	return src, ok
}

// drainingSources lists overlay sources that are no longer members —
// replicas an operator removed that the tier still reads from while
// their dictionaries move.
func (r *rebalancer) drainingSources() []string {
	members := make(map[string]bool)
	for _, url := range r.rt.ms.MemberURLs() {
		members[url] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, src := range r.overlay {
		if !members[src] && !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return out
}

func (r *rebalancer) stats() RebalanceStats {
	r.mu.Lock()
	overlay, pending := len(r.overlay), r.pending
	r.mu.Unlock()
	return RebalanceStats{
		Generation: r.gen.Load(),
		Pending:    pending,
		Completed:  r.completed.Load(),
		Failed:     r.failed.Load(),
		Unsourced:  r.unsourced.Load(),
		Overlay:    overlay,
	}
}

func (r *rebalancer) journal(rec transferRecord) {
	r.journalMu.Lock()
	defer r.journalMu.Unlock()
	if r.journalF == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if _, err := r.journalF.Write(append(data, '\n')); err == nil {
		_ = r.journalF.Sync()
	}
}

// listDicts asks one replica for its on-disk dictionary inventory.
func (r *rebalancer) listDicts(replica string) (map[string]bool, error) {
	ctx, cancel := context.WithTimeout(r.ctx, defaultHealthTimeout)
	defer cancel()
	res, err := fetch(ctx, r.rt.cfg.Client, http.MethodGet, replica+"/v1/dicts", nil, nil, 1<<22)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("service: %s/v1/dicts: status %d", replica, res.status)
	}
	var doc dictList
	if err := json.Unmarshal(res.body, &doc); err != nil {
		return nil, err
	}
	has := make(map[string]bool, len(doc.Dicts))
	for _, d := range doc.Dicts {
		has[d.ID] = true
	}
	return has, nil
}

// rebalanceMove is one planned transfer.
type rebalanceMove struct {
	id   string
	from string
	to   string
}

// reconcile runs one convergence pass; it reports whether the pass was
// incomplete (an inventory was unreachable or a transfer failed) and
// should be retried.
func (r *rebalancer) reconcile() (incomplete bool) {
	gen := r.gen.Add(1)
	live := r.rt.ms.Live()
	if len(live) == 0 {
		return true
	}
	ring := r.rt.ms.Ring()

	// Inventory. A replica whose listing fails contributes nothing
	// this round; dictionaries it owns are re-examined on the rekick.
	has := make(map[string]map[string]bool, len(live))
	union := make(map[string]bool)
	for _, rep := range live {
		ids, err := r.listDicts(rep)
		if err != nil {
			incomplete = true
			continue
		}
		has[rep] = ids
		for id := range ids {
			union[id] = true
		}
	}
	ids := make([]string, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Plan: owner lacks the file -> move it there from the first live
	// holder after the owner in ring order (the previous owner, when
	// the gap came from a join).
	var moves []rebalanceMove
	overlay := make(map[string]string)
	for _, id := range ids {
		owner := ring.Owner(id)
		inv, known := has[owner]
		if !known {
			incomplete = true
			continue
		}
		if inv[id] {
			continue
		}
		src := ""
		for _, cand := range ring.Owners(id, len(live)) {
			if cand != owner && has[cand] != nil && has[cand][id] {
				src = cand
				break
			}
		}
		if src == "" {
			r.unsourced.Add(1)
			continue
		}
		overlay[id] = src
		moves = append(moves, rebalanceMove{id: id, from: src, to: owner})
	}

	// Swap the overlay before any transfer starts: from here on, a
	// moved dictionary routes to its warm source, and entries for
	// dictionaries that converged since the last pass are dropped.
	r.mu.Lock()
	r.overlay = overlay
	r.pending = len(moves)
	r.mu.Unlock()

	for _, m := range moves {
		r.journal(transferRecord{Gen: gen, Status: "plan", Dict: m.id, From: m.from, To: m.to})
	}

	// Transfer with bounded concurrency.
	var failures atomic.Int64
	par.For(len(moves), r.workers, func(i int) {
		m := moves[i]
		var n int
		var sha string
		err := retry.Do(r.ctx, transferBackoff, m.id, 1+r.retries, func() error {
			var terr error
			n, sha, terr = TransferSnapshot(r.ctx, r.rt.cfg.Client, m.from, m.to, m.id)
			return terr
		})
		r.settle(m.id, err == nil)
		if err != nil {
			failures.Add(1)
			r.failed.Add(1)
			r.journal(transferRecord{Gen: gen, Status: "failed", Dict: m.id, From: m.from, To: m.to, Error: err.Error()})
			return
		}
		r.completed.Add(1)
		r.journal(transferRecord{Gen: gen, Status: "done", Dict: m.id, From: m.from, To: m.to, Sha: sha, Bytes: n})
		// The new owner has the bytes but a cold cache; invalidate
		// nothing here — its next request loads the file.
	})
	return incomplete || failures.Load() > 0
}

// settle counts one finished transfer of dictionary id; a successful
// one stops routing id to its warm source.
func (r *rebalancer) settle(id string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending--
	if ok {
		delete(r.overlay, id)
	}
}
