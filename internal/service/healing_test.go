package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// Tests for the self-healing tier: circuit breakers, dynamic
// membership with health hysteresis, ring-diff exactness, automatic
// rebalance, journal resume, and the new metrics surface.

// --- breaker state machine -------------------------------------------

// TestBreakerStateMachine drives the circuit through scripted event
// sequences against a fake clock and checks admissions and the final
// state at every step.
func TestBreakerStateMachine(t *testing.T) {
	type ev struct {
		adv time.Duration // advance the clock before the event
		op  string        // allow | deny | ok | fail | cancel | reset
	}
	const cd = 100 * time.Millisecond
	cases := []struct {
		name   string
		events []ev
		want   BreakerState
	}{
		{"closed-absorbs-sparse-failures",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "ok"}, {0, "fail"}, {0, "fail"}, {0, "allow"}},
			BreakerClosed},
		{"opens-after-consecutive-failures",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {0, "deny"}},
			BreakerOpen},
		{"open-rejects-until-cooldown",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd - time.Nanosecond, "deny"}},
			BreakerOpen},
		{"cooldown-admits-half-open-probe",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd, "allow"}, {0, "deny"}},
			BreakerHalfOpen},
		{"half-open-needs-consecutive-successes",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd, "allow"}, {0, "ok"}, {0, "allow"}},
			BreakerHalfOpen},
		{"half-open-closes-after-successes",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd, "allow"}, {0, "ok"}, {0, "allow"}, {0, "ok"}},
			BreakerClosed},
		{"half-open-failure-reopens",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd, "allow"}, {0, "fail"}, {0, "deny"}},
			BreakerOpen},
		{"cancel-frees-the-probe-slot",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd, "allow"}, {0, "cancel"}, {0, "allow"}},
			BreakerHalfOpen},
		{"reset-force-closes",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {0, "reset"}, {0, "allow"}},
			BreakerClosed},
		// A late failure from an attempt admitted before the trip must
		// not re-arm the open timer: cooldown still counts from the
		// trip, so the probe below is admitted.
		{"stale-failure-does-not-rearm-cooldown",
			[]ev{{0, "fail"}, {0, "fail"}, {0, "fail"}, {cd / 2, "fail"}, {cd / 2, "allow"}},
			BreakerHalfOpen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := time.Unix(1000, 0)
			b := &breaker{failN: 3, succN: 2, cooldown: cd, now: func() time.Time { return cur }}
			for i, e := range tc.events {
				cur = cur.Add(e.adv)
				switch e.op {
				case "allow":
					if !b.Allow() {
						t.Fatalf("event %d: Allow() = false, want admit (state %s)", i, b.State())
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("event %d: Allow() = true, want reject (state %s)", i, b.State())
					}
				case "ok":
					b.Report(true)
				case "fail":
					b.Report(false)
				case "cancel":
					b.Cancelled()
				case "reset":
					b.reset()
				}
			}
			if got := b.State(); got != tc.want {
				t.Fatalf("final state = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestBreakerHalfOpenProbeRace: when the cooldown expires, concurrent
// requests race for the half-open probe slot and exactly one may win.
// Run under -race this also proves the state transitions are sound
// under contention.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	var clock atomic.Int64
	b := &breaker{failN: 1, succN: 1, cooldown: time.Second,
		now: func() time.Time { return time.Unix(0, clock.Load()) }}
	b.Report(false) // trip
	if b.State() != BreakerOpen {
		t.Fatalf("state after trip = %s, want open", b.State())
	}
	clock.Store(int64(2 * time.Second))
	for round := 0; round < 3; round++ {
		var admitted atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d probes admitted concurrently, want exactly 1", round, n)
		}
		b.Report(false) // reopen, re-expire, race again
		clock.Add(int64(2 * time.Second))
	}
}

// --- ring diff --------------------------------------------------------

// TestRingDiffJoinLeaveRejoin: the moved-key set RingDiff reports is
// exactly the ownership delta — after a join every move lands on the
// joined replica, after a leave every move departs it, and a rejoin of
// the identical set moves nothing.
func TestRingDiffJoinLeaveRejoin(t *testing.T) {
	base := []string{"http://r1", "http://r2", "http://r3"}
	joined := "http://r4"
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("dict-%03d", i)
	}
	rA, err := NewRing(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := NewRing(append(append([]string(nil), base...), joined), 0)
	if err != nil {
		t.Fatal(err)
	}

	join := ringDiff(rA, rB, keys)
	if len(join) == 0 {
		t.Fatal("join moved zero keys out of 200 — ring delta lost")
	}
	moved := make(map[string]keyMove, len(join))
	for i, mv := range join {
		if i > 0 && join[i-1].Key >= mv.Key {
			t.Fatalf("moves not sorted by key: %q before %q", join[i-1].Key, mv.Key)
		}
		if mv.To != joined {
			t.Errorf("join moved %q to %q, want every move to the joined replica", mv.Key, mv.To)
		}
		moved[mv.Key] = mv
	}
	for _, k := range keys {
		from, to := rA.Owner(k), rB.Owner(k)
		mv, ok := moved[k]
		if (from != to) != ok {
			t.Fatalf("key %q: owner delta %v but reported-moved %v", k, from != to, ok)
		}
		if ok && (mv.From != from || mv.To != to) {
			t.Fatalf("key %q: move %+v, want %s -> %s", k, mv, from, to)
		}
	}

	leave := ringDiff(rB, rA, keys)
	if len(leave) != len(join) {
		t.Errorf("leave moved %d keys, join moved %d — the deltas must mirror", len(leave), len(join))
	}
	for _, mv := range leave {
		if mv.From != joined {
			t.Errorf("leave moved %q from %q, want every move from the departed replica", mv.Key, mv.From)
		}
	}

	rB2, err := NewRing([]string{joined, base[2], base[0], base[1]}, 0) // permuted
	if err != nil {
		t.Fatal(err)
	}
	if rejoin := ringDiff(rB, rB2, keys); len(rejoin) != 0 {
		t.Fatalf("rejoin of the identical set moved %d keys, want 0", len(rejoin))
	}
}

// --- membership hysteresis -------------------------------------------

func TestMembershipHysteresis(t *testing.T) {
	ms, err := newMembership([]string{"http://a", "http://b"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	report := func(url string, ok bool) (bool, bool) { return ms.ReportProbe(url, ok, 2, 2) }

	if tr, _ := report("http://a", false); tr {
		t.Fatal("one failure transitioned (failAfter is 2)")
	}
	if tr, up := report("http://a", false); !tr || up {
		t.Fatal("second consecutive failure did not demote")
	}
	if ms.IsLive("http://a") {
		t.Fatal("demoted member still live")
	}
	if got := ms.Ring().Replicas(); len(got) != 1 || got[0] != "http://b" {
		t.Fatalf("ring after demotion = %v, want [http://b]", got)
	}

	// Flip-flopping never reaches either threshold.
	for i := 0; i < 3; i++ {
		if tr, _ := report("http://a", true); tr {
			t.Fatal("single success promoted (recoverAfter is 2)")
		}
		if tr, _ := report("http://a", false); tr {
			t.Fatal("single failure after a success transitioned")
		}
	}

	if _, _ = report("http://a", true); ms.IsLive("http://a") {
		t.Fatal("promoted one success early")
	}
	if tr, up := report("http://a", true); !tr || !up {
		t.Fatal("second consecutive success did not promote")
	}
	if got := ms.Ring().Replicas(); len(got) != 2 {
		t.Fatalf("ring after promotion = %v, want both members", got)
	}

	// Probes for departed URLs are ignored.
	if tr, _ := ms.ReportProbe("http://gone", false, 1, 1); tr {
		t.Fatal("unknown URL transitioned")
	}

	// With every member down the last ring is retained.
	report("http://a", false)
	report("http://a", false)
	report("http://b", false)
	report("http://b", false)
	if len(ms.Live()) != 0 {
		t.Fatalf("live = %v, want none", ms.Live())
	}
	if got := ms.Ring().Replicas(); len(got) != 1 || got[0] != "http://b" {
		t.Fatalf("ring with zero live = %v, want the last non-empty ring [http://b]", got)
	}

	// SetMembers preserves retained members' health and joins new ones
	// live.
	changed, err := ms.SetMembers([]string{"http://a", "http://c"})
	if err != nil || !changed {
		t.Fatalf("SetMembers = (%v, %v), want changed", changed, err)
	}
	if ms.IsLive("http://a") {
		t.Fatal("SetMembers reset a retained member's down state")
	}
	if !ms.IsLive("http://c") {
		t.Fatal("SetMembers did not start the new member live")
	}
	if _, err := ms.SetMembers(nil); err == nil {
		t.Fatal("SetMembers accepted an empty replica set")
	}

	// The last member cannot leave.
	ms2, err := newMembership([]string{"http://solo"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms2.Leave("http://solo"); err == nil {
		t.Fatal("Leave removed the last member")
	}
}

// --- prober integration ----------------------------------------------

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProberDemotesAndPromotes: with the replica-down fault pinning one
// member's probes to failure, the prober demotes it after FailAfter
// cycles (ring shrinks, router still ready); clearing the fault
// promotes it back after RecoverAfter successes and resets its
// breaker.
func TestProberDemotesAndPromotes(t *testing.T) {
	defer fault.Reset()
	tc := newTestCluster(t, 2, func(cfg *RouterConfig) {
		cfg.HealthInterval = 15 * time.Millisecond
		cfg.FailAfter = 2
		cfg.RecoverAfter = 2
	})
	rt := tc.router
	victim := rt.ms.MemberURLs()[0] // fault param 1 = first sorted member
	mustConfigure(t, "replica-down:1:7:1")

	waitUntil(t, 5*time.Second, "victim demotion", func() bool { return !rt.ms.IsLive(victim) })
	if got := rt.Ring().Replicas(); len(got) != 1 {
		t.Fatalf("ring with one member down = %v, want 1 live replica", got)
	}

	// The healed-around tier is still ready — a down member must not
	// gate the aggregate.
	resp, err := http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rdoc struct {
		Ready    bool `json:"ready"`
		Replicas []struct {
			Replica string `json:"replica"`
			State   string `json:"state"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rdoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rdoc.Ready {
		t.Fatalf("readyz with one member down = %d ready=%v, want 200 ready", resp.StatusCode, rdoc.Ready)
	}
	downSeen := false
	for _, m := range rdoc.Replicas {
		downSeen = downSeen || (m.Replica == victim && m.State == "down")
	}
	if !downSeen {
		t.Fatalf("readyz does not report %s down: %+v", victim, rdoc.Replicas)
	}

	// Routed requests keep answering with the survivor.
	status, body := postDiagnose(t, tc.front.URL, diagnoseBody(t, "alpha", "Alg_rev", 5))
	if status != http.StatusOK {
		t.Fatalf("diagnose with one member down = %d body %s", status, body)
	}

	// Recovery: clear the fault, wait for promotion, breaker closed.
	rt.breakers.get(victim).Report(false) // dirty the breaker pre-promotion
	fault.Reset()
	waitUntil(t, 5*time.Second, "victim promotion", func() bool { return rt.ms.IsLive(victim) })
	if got := rt.breakers.get(victim).State(); got != BreakerClosed {
		t.Fatalf("breaker after promotion = %s, want closed (reset)", got)
	}
	if v := rt.ms.Version(); v < 3 {
		t.Fatalf("membership version = %d, want >= 3 (initial + demote + promote)", v)
	}
	if g := rt.reb.stats().Generation; g < 1 {
		t.Fatalf("rebalance generation = %d, want >= 1 (transitions kick reconciles)", g)
	}
}

// --- proxy-error fault and breaker fast-fail --------------------------

// TestProxyErrorTripsBreaker: injected transport errors open the
// single replica's circuit (502s first, then an immediate 503
// fast-fail without dialing), and after the cooldown a half-open probe
// closes it again.
func TestProxyErrorTripsBreaker(t *testing.T) {
	defer fault.Reset()
	var mu sync.Mutex
	cur := time.Unix(5000, 0)
	clockNow := func() time.Time { mu.Lock(); defer mu.Unlock(); return cur }

	s := newTestServer(t, nil)
	b := httptest.NewServer(s.Handler())
	t.Cleanup(func() { b.Close(); _ = s.Shutdown(context.Background()) })
	rt, err := NewRouter(RouterConfig{
		Replicas:         []string{b.URL},
		MaxHedges:        0,
		BreakerFailures:  2,
		BreakerSuccesses: 1,
		BreakerCooldown:  time.Second,
		now:              clockNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	body := diagnoseBody(t, "alpha", "Alg_rev", 5)

	mustConfigure(t, "proxy-error:1:3")
	for i := 0; i < 2; i++ {
		if status, rb := postDiagnose(t, front.URL, body); status != http.StatusBadGateway {
			t.Fatalf("request %d under proxy-error = %d body %s, want 502", i, status, rb)
		}
	}
	if got := rt.breakers.get(b.URL).State(); got != BreakerOpen {
		t.Fatalf("breaker after %d transport errors = %s, want open", 2, got)
	}
	// Open circuit: fast-fail 503 — no attempt, so the armed fault's
	// injection counter must not advance.
	before := faultProxyError.Injected()
	if status, rb := postDiagnose(t, front.URL, body); status != http.StatusServiceUnavailable {
		t.Fatalf("request with open breaker = %d body %s, want 503", status, rb)
	}
	if after := faultProxyError.Injected(); after != before {
		t.Fatalf("fast-fail still dialed the replica (injections %d -> %d)", before, after)
	}
	if v := rt.fastFails.Value(); v < 1 {
		t.Fatalf("breaker fast-fail counter = %v, want >= 1", v)
	}
	st := rt.Stats()
	if len(st.Members) != 1 || st.Members[0].Breaker != "open" {
		t.Fatalf("stats members = %+v, want the one member's breaker open", st.Members)
	}

	// Fault cleared but cooldown not elapsed: still fast-failing.
	fault.Reset()
	if status, _ := postDiagnose(t, front.URL, body); status != http.StatusServiceUnavailable {
		t.Fatalf("request inside cooldown = %d, want 503", status)
	}
	// Past the cooldown the half-open probe goes through and closes
	// the circuit (BreakerSuccesses 1).
	mu.Lock()
	cur = cur.Add(2 * time.Second)
	mu.Unlock()
	if status, rb := postDiagnose(t, front.URL, body); status != http.StatusOK {
		t.Fatalf("half-open probe request = %d body %s, want 200", status, rb)
	}
	if got := rt.breakers.get(b.URL).State(); got != BreakerClosed {
		t.Fatalf("breaker after successful probe = %s, want closed", got)
	}
}

// --- overlay redirect -------------------------------------------------

// TestOverlayRedirect: while a dictionary is mid-transfer the attempt
// ladder starts at the warm source, with the ring targets after it.
func TestOverlayRedirect(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Replicas: []string{"http://ra", "http://rb"}, MaxHedges: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	plain := rt.owners("some-dict")
	if len(plain) != 2 {
		t.Fatalf("ladder = %v, want both replicas", plain)
	}
	rt.reb.mu.Lock()
	rt.reb.overlay["some-dict"] = "http://warm"
	rt.reb.mu.Unlock()
	redirected := rt.owners("some-dict")
	if len(redirected) != 3 || redirected[0] != "http://warm" {
		t.Fatalf("redirected ladder = %v, want the warm source first then %v", redirected, plain)
	}
	if redirected[1] != plain[0] || redirected[2] != plain[1] {
		t.Fatalf("redirected ladder = %v, want ring order %v preserved after the source", redirected, plain)
	}
	if st := rt.reb.stats(); st.Overlay != 1 {
		t.Fatalf("overlay stat = %d, want 1", st.Overlay)
	}
}

// --- rebalance on join / leave ---------------------------------------

// rebalanceFixture builds n replica servers over private dict dirs;
// full dirs hold ids' worth of copies of the alpha fixture blob.
func rebalanceFixture(t *testing.T, ids []string, full []bool) (urls []string, dirs []string) {
	t.Helper()
	blob := getFixture(t)["alpha"].blob
	for _, isFull := range full {
		dir := t.TempDir()
		if isFull {
			for _, id := range ids {
				if err := os.WriteFile(filepath.Join(dir, id+".dict"), blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := newTestServer(t, func(cfg *Config) { cfg.Dir = dir })
		b := httptest.NewServer(s.Handler())
		t.Cleanup(func() { b.Close(); _ = s.Shutdown(context.Background()) })
		urls = append(urls, b.URL)
		dirs = append(dirs, dir)
	}
	return urls, dirs
}

func adminReplicas(t *testing.T, front, op, replica string) (changed bool) {
	t.Helper()
	body := fmt.Sprintf(`{"op":%q,"replica":%q}`, op, replica)
	resp, err := http.Post(front+"/v1/admin/replicas", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Changed bool `json:"changed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("admin %s %s = %d (%v)", op, replica, resp.StatusCode, err)
	}
	return doc.Changed
}

// TestRebalanceOnJoin: an empty replica joins through the admin
// endpoint; the rebalancer copies exactly its ring share onto its
// disk, the overlay drains to empty, and routed diagnoses for moved
// dictionaries answer correctly. Leaving again moves nothing (the
// survivors kept every file) and the tier keeps answering.
func TestRebalanceOnJoin(t *testing.T) {
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("reb-%02d", i)
	}
	urls, dirs := rebalanceFixture(t, ids, []bool{true, true, false})
	rt, err := NewRouter(RouterConfig{Replicas: urls[:2], HedgeAfter: 10 * time.Millisecond, MaxHedges: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	if !adminReplicas(t, front.URL, "join", urls[2]) {
		t.Fatal("join reported no change")
	}
	ring := rt.Ring()
	if got := ring.Replicas(); len(got) != 3 {
		t.Fatalf("ring after join = %v, want 3 replicas", got)
	}
	var owned []string
	for _, id := range ids {
		if ring.Owner(id) == urls[2] {
			owned = append(owned, id)
		}
	}
	if len(owned) == 0 {
		t.Fatalf("joined replica owns none of %d ids — ring delta lost", len(ids))
	}

	waitUntil(t, 10*time.Second, "rebalance convergence", func() bool {
		for _, id := range owned {
			if _, err := os.Stat(filepath.Join(dirs[2], id+".dict")); err != nil {
				return false
			}
		}
		st := rt.reb.stats()
		return st.Pending == 0 && st.Overlay == 0
	})
	st := rt.Stats().Rebalance
	if st.Completed < int64(len(owned)) {
		t.Fatalf("completed transfers = %d, want >= %d (the joined replica's share)", st.Completed, len(owned))
	}
	// Only the joined replica's share moved — the survivors' dirs were
	// already complete, so nothing else was planned.
	if st.Failed != 0 || st.Unsourced != 0 {
		t.Fatalf("rebalance stats = %+v, want no failures and no unsourced", st)
	}
	blob := getFixture(t)["alpha"].blob
	moved, err := os.ReadFile(filepath.Join(dirs[2], owned[0]+".dict"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(moved, blob) {
		t.Fatalf("transferred dictionary differs from the source bytes (%d vs %d bytes)", len(moved), len(blob))
	}

	// Routed diagnose for a moved dictionary answers like the fixture.
	body := bytes.Replace(diagnoseBody(t, "alpha", "Alg_rev", 5),
		[]byte(`"dict":"alpha"`), []byte(fmt.Sprintf(`"dict":%q`, owned[0])), 1)
	status, rb := postDiagnose(t, front.URL, body)
	if status != http.StatusOK {
		t.Fatalf("diagnose for moved dict = %d body %s", status, rb)
	}
	var dresp DiagnoseResponse
	if err := json.Unmarshal(rb, &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Ranking[0].Arc != getFixture(t)["alpha"].top1 {
		t.Fatalf("moved-dict top-1 = %d, want %d", dresp.Ranking[0].Arc, getFixture(t)["alpha"].top1)
	}

	// Idempotence and leave.
	if adminReplicas(t, front.URL, "join", urls[2]) {
		t.Fatal("second join reported a change")
	}
	if !adminReplicas(t, front.URL, "leave", urls[2]) {
		t.Fatal("leave reported no change")
	}
	if got := rt.Ring().Replicas(); len(got) != 2 {
		t.Fatalf("ring after leave = %v, want 2 replicas", got)
	}
	waitUntil(t, 10*time.Second, "post-leave reconcile", func() bool {
		st := rt.reb.stats()
		return st.Pending == 0 && st.Overlay == 0
	})
	status, rb = postDiagnose(t, front.URL, body)
	if status != http.StatusOK {
		t.Fatalf("diagnose after leave = %d body %s", status, rb)
	}
}

// --- journal resume ---------------------------------------------------

func TestReplayJournal(t *testing.T) {
	write := func(lines ...string) string {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plan := `{"gen":1,"status":"plan","dict":"x","from":"http://a","to":"http://b"}`
	done := `{"gen":1,"status":"done","dict":"x","from":"http://a","to":"http://b"}`
	failed := `{"gen":1,"status":"failed","dict":"x","from":"http://a","to":"http://b","error":"boom"}`
	cases := []struct {
		name string
		path string
		want bool
	}{
		{"missing-file", filepath.Join(t.TempDir(), "absent.jsonl"), false},
		{"plan-without-outcome", write(plan), true},
		{"plan-then-done", write(plan, done), false},
		{"plan-then-failed", write(plan, failed), false},
		{"torn-tail-after-plan", write(plan, `{"gen":2,"status":"pl`), true},
		{"torn-tail-after-done", write(plan, done, `{"gen":2,"st`), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := replayJournal(tc.path); got != tc.want {
				t.Fatalf("replayJournal = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRebalanceJournalResume: a router started over a journal whose
// tail holds an unfinished plan reconciles immediately — the empty
// replica receives its ring share with no admin intervention — and the
// journal gains done records.
func TestRebalanceJournalResume(t *testing.T) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("res-%02d", i)
	}
	urls, dirs := rebalanceFixture(t, ids, []bool{true, false})
	jpath := filepath.Join(t.TempDir(), "rebalance.jsonl")
	stale := fmt.Sprintf(`{"gen":7,"status":"plan","dict":"res-00","from":%q,"to":%q}`, urls[0], urls[1])
	if err := os.WriteFile(jpath, []byte(stale+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt, err := NewRouter(RouterConfig{Replicas: urls, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ring := rt.Ring()
	var owned []string
	for _, id := range ids {
		if ring.Owner(id) == urls[1] {
			owned = append(owned, id)
		}
	}
	if len(owned) == 0 {
		t.Fatalf("second replica owns none of %d ids — nothing to resume", len(ids))
	}
	waitUntil(t, 10*time.Second, "journal-driven resume", func() bool {
		for _, id := range owned {
			if _, err := os.Stat(filepath.Join(dirs[1], id+".dict")); err != nil {
				return false
			}
		}
		return true
	})
	// A transfer's done record is journaled after the replica installs
	// the file, so the last records may trail the files by a moment.
	waitUntil(t, 10*time.Second, fmt.Sprintf("%d journaled done records", len(owned)), func() bool {
		data, err := os.ReadFile(jpath)
		return err == nil && bytes.Count(data, []byte(`"status":"done"`)) >= len(owned)
	})
}

// --- metrics surface --------------------------------------------------

// TestRouterMetricsDeterministic: idle scrapes are byte-identical and
// carry the self-healing series (per-replica up/breaker gauges and the
// rebalance outcome counters).
func TestRouterMetricsDeterministic(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Replicas: []string{"http://ra", "http://rb"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	scrape := func() string {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics scrape = %d", rec.Code)
		}
		return rec.Body.String()
	}
	first := scrape()
	second := scrape()
	if first != second {
		t.Fatal("idle /metrics scrapes differ — scraping mutated state")
	}
	for _, want := range []string{
		`ddd_replica_up{replica="http://ra"} 1`,
		`ddd_replica_up{replica="http://rb"} 1`,
		`ddd_breaker_state{replica="http://ra"} 0`,
		`ddd_rebalance_transfers_total{result="error"} 0`,
		`ddd_rebalance_transfers_total{result="ok"} 0`,
		`ddd_rebalance_transfers_total{result="unsourced"} 0`,
		`ddd_router_breaker_fast_fails_total 0`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// keyMove records one key whose owner changed between two rings.
type keyMove struct {
	Key  string
	From string
	To   string
}

// ringDiff returns the subset of keys whose owner differs between the
// old and new rings, sorted by key. By the ring's bounded-movement
// property, the moved set after a join contains only keys moving TO
// the joined replica, after a leave only keys moving FROM the departed
// one.
func ringDiff(oldRing, newRing *Ring, keys []string) []keyMove {
	var moves []keyMove
	for _, key := range keys {
		from, to := oldRing.Owner(key), newRing.Owner(key)
		if from != to {
			moves = append(moves, keyMove{Key: key, From: from, To: to})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Key < moves[j].Key })
	return moves
}
