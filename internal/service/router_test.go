package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// --- ring -----------------------------------------------------------

func TestRingDeterministicPlacement(t *testing.T) {
	replicas := []string{"http://a", "http://b", "http://c"}
	r1, err := NewRing(replicas, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A permuted replica list builds the identical ring.
	r2, err := NewRing([]string{"http://c", "http://a", "http://b"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("dict-%d", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1 != o2 {
			t.Fatalf("key %q: owner %q vs %q across permuted rings", key, o1, o2)
		}
		counts[o1]++
	}
	// Placement must actually spread: every replica owns a nontrivial
	// share of 500 keys (vnodes keep max/min skew modest).
	for _, rep := range replicas {
		if counts[rep] < 50 {
			t.Errorf("replica %s owns only %d/500 keys", rep, counts[rep])
		}
	}
	// Owners returns distinct replicas in ring order.
	owners := r1.Owners("dict-7", 3)
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner in %v", owners)
		}
		seen[o] = true
	}
	if _, err := NewRing([]string{"http://a", "http://a"}, 8); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty replica list accepted")
	}
}

func TestRingBoundedMovement(t *testing.T) {
	base := []string{"http://a", "http://b", "http://c", "http://d"}
	r4, err := NewRing(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRing(append(append([]string(nil), base...), "http://e"), 64)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := NewRing(base[:3], 64)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	movedOnAdd, movedToNew, movedOnRemove, movedFromGone := 0, 0, 0, 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("dict-%d", i)
		before := r4.Owner(key)
		if after := r5.Owner(key); after != before {
			movedOnAdd++
			if after == "http://e" {
				movedToNew++
			}
		}
		if after := r3.Owner(key); after != before {
			movedOnRemove++
			if before != "http://d" {
				movedFromGone++
			}
		}
	}
	// Adding one of five replicas should move about 1/5 of the keys —
	// and every moved key must move TO the new replica, never between
	// survivors (the bounded-movement property).
	if movedOnAdd != movedToNew {
		t.Errorf("add moved %d keys but only %d to the new replica", movedOnAdd, movedToNew)
	}
	if movedOnAdd > keys*35/100 {
		t.Errorf("add moved %d/%d keys, want about 1/5", movedOnAdd, keys)
	}
	// Removing a replica only moves the keys it owned.
	if movedFromGone != 0 {
		t.Errorf("remove moved %d keys that http://d did not own", movedFromGone)
	}
	if movedOnRemove > keys*45/100 {
		t.Errorf("remove moved %d/%d keys, want about 1/4", movedOnRemove, keys)
	}
}

// --- cluster helpers ------------------------------------------------

// testCluster is n in-process replicas behind one router handler.
type testCluster struct {
	replicas []*Server
	backends []*httptest.Server
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int, mutate func(*RouterConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := newTestServer(t, nil)
		b := httptest.NewServer(s.Handler())
		tc.replicas = append(tc.replicas, s)
		tc.backends = append(tc.backends, b)
		urls[i] = b.URL
	}
	cfg := RouterConfig{Replicas: urls}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	tc.router.Close()
	tc.front.Close()
	for i, b := range tc.backends {
		b.Close()
		_ = tc.replicas[i].Shutdown(context.Background())
	}
}

// --- byte-identity router vs single node ----------------------------

// TestRouterDiagnoseMatchesSingleNode is the routed flavor of the
// acceptance concurrency test: 32 parallel clients through the
// router, every response byte-identical to the single-node answer
// for the same request — including 400s for malformed bodies.
func TestRouterDiagnoseMatchesSingleNode(t *testing.T) {
	single := newTestServer(t, nil)
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	defer func() { _ = single.Shutdown(context.Background()) }()
	tc := newTestCluster(t, 3, nil)

	reqs := map[string][]byte{
		"alpha":     diagnoseBody(t, "alpha", "Alg_rev", 7),
		"beta":      diagnoseBody(t, "beta", "Alg_rev", 7),
		"beta-II":   diagnoseBody(t, "beta", "II", 3),
		"missing":   []byte(`{"dict":"nope","behavior":["0"]}`),
		"malformed": []byte(`{"dict":`),
		"unknown":   []byte(`{"dict":"alpha","zzz":1,"behavior":["0"]}`),
	}
	type answer struct {
		status int
		body   []byte
	}
	want := make(map[string]answer)
	for name, body := range reqs {
		status, data := postDiagnose(t, sts.URL, body)
		want[name] = answer{status, data}
	}

	names := []string{"alpha", "beta", "beta-II", "missing", "malformed", "unknown"}
	const clients = 32
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				name := names[(c+r)%len(names)]
				resp, err := http.Post(tc.front.URL+"/v1/diagnose", "application/json", bytes.NewReader(reqs[name]))
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				w := want[name]
				if resp.StatusCode != w.status {
					errs <- fmt.Errorf("%s: routed status %d, single-node %d (%s)", name, resp.StatusCode, w.status, data)
					return
				}
				if !bytes.Equal(data, w.body) {
					errs <- fmt.Errorf("%s: routed response diverged from single node:\n routed: %s\n single: %s", name, data, w.body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRouterBatchMatchesSingleNode: a batch whose dictionaries land
// on different owners is split, fanned out, and merged back into the
// byte-identical document a single node would have produced.
func TestRouterBatchMatchesSingleNode(t *testing.T) {
	single := newTestServer(t, nil)
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	defer func() { _ = single.Shutdown(context.Background()) }()
	tc := newTestCluster(t, 3, nil)

	item := func(id string, k int) string {
		var req DiagnoseRequest
		if err := json.Unmarshal(diagnoseBody(t, id, "Alg_rev", k), &req); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// Mixed owners, a failing item (unknown dict), and a repeated id.
	body := []byte(fmt.Sprintf(`{"requests":[%s,%s,{"dict":"nope","behavior":["0"]},%s,%s]}`,
		item("alpha", 3), item("beta", 2), item("alpha", 1), item("beta", 5)))
	if ownA, ownB := tc.router.Ring().Owner("alpha"), tc.router.Ring().Owner("beta"); ownA == ownB {
		t.Logf("alpha and beta share owner %s (merge path still exercised via nope)", ownA)
	}

	post := func(url string) (int, []byte) {
		resp, err := http.Post(url+"/v1/diagnose/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	wantStatus, wantBody := post(sts.URL)
	gotStatus, gotBody := post(tc.front.URL)
	if gotStatus != wantStatus {
		t.Fatalf("routed batch status %d, single-node %d", gotStatus, wantStatus)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("routed batch diverged:\n routed: %s\n single: %s", gotBody, wantBody)
	}
	// Whole-batch forward (single dict) stays byte-identical too.
	solo := []byte(fmt.Sprintf(`{"requests":[%s,%s]}`, item("alpha", 2), item("alpha", 4)))
	body = solo
	wantStatus, wantBody = post(sts.URL)
	gotStatus, gotBody = post(tc.front.URL)
	if gotStatus != wantStatus || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("single-owner batch diverged: %d vs %d\n routed: %s\n single: %s", gotStatus, wantStatus, gotBody, wantBody)
	}
}

// TestRouterBadBatchItemMatchesSingleNode: a batch whose bad items sit
// on two owners gets the single node's 400, which names the body's
// first bad item, in either item order; a valid batch over the same
// owners is still split.
func TestRouterBadBatchItemMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	ring := tc.router.Ring()
	other := ""
	for i := 0; other == ""; i++ {
		if id := fmt.Sprintf("x%d", i); ring.Owner(id) != ring.Owner("alpha") {
			other = id
		}
	}
	batch := func(items ...string) []byte {
		return []byte(`{"requests":[` + strings.Join(items, ",") + `]}`)
	}
	for _, bad := range []struct{ alpha, other string }{
		{`{"dict":"alpha","zz1":1}`, `{"dict":"` + other + `","zz2":1}`},
		{`{"dict":"alpha","k":"x"}`, `{"dict":"` + other + `","zz2":1}`},
		{`{"dict":"alpha","zz1":1}`, `{"dict":"` + other + `","k":"x"}`},
	} {
		for _, body := range [][]byte{batch(bad.alpha, bad.other), batch(bad.other, bad.alpha)} {
			dStatus, dBody := post(t, tc.backends[0].URL, "/v1/diagnose/batch", body)
			rStatus, rBody := post(t, tc.front.URL, "/v1/diagnose/batch", body)
			if dStatus != http.StatusBadRequest || rStatus != dStatus || rBody != dBody {
				t.Errorf("%s: direct %d %q, routed %d %q", body, dStatus, dBody, rStatus, rBody)
			}
		}
	}

	valid := batch(`{"dict":"alpha","behavior":["0"]}`, `{"dict":"`+other+`","behavior":["0"]}`)
	before := tc.router.Stats().Forwards
	dStatus, dBody := post(t, tc.backends[0].URL, "/v1/diagnose/batch", valid)
	rStatus, rBody := post(t, tc.front.URL, "/v1/diagnose/batch", valid)
	if rStatus != dStatus || rBody != dBody {
		t.Errorf("valid batch: direct %d %q, routed %d %q", dStatus, dBody, rStatus, rBody)
	}
	if got := tc.router.Stats().Forwards - before; got != 2 {
		t.Errorf("valid batch over two owners made %d forwards, want 2 (one per owner)", got)
	}
}

// --- hedging --------------------------------------------------------

// TestRouterHedgeCancelsLoser: with every replica's handler stalled
// by the slow-handler site, the hedge fires, the primary wins (it
// stalled first), and the losing attempt is cancelled through its
// request context without leaking a goroutine.
func TestRouterHedgeCancelsLoser(t *testing.T) {
	defer fault.Reset()
	baseline := runtime.NumGoroutine()
	tc := newTestCluster(t, 2, func(cfg *RouterConfig) {
		cfg.HedgeAfter = 20 * time.Millisecond
		cfg.MaxHedges = 1
	})
	mustConfigure(t, "slow-handler:1:42:150")

	resp, err := http.Post(tc.front.URL+"/v1/diagnose", "application/json",
		bytes.NewReader(diagnoseBody(t, "alpha", "Alg_rev", 3)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %s", resp.StatusCode, data)
	}
	st := tc.router.Stats()
	if st.Hedges < 1 {
		t.Errorf("hedges = %d, want >= 1 (both replicas stall 150ms, budget is 20ms)", st.Hedges)
	}
	fault.Reset()
	// The cancelled loser's handler finishes its sleep, observes its
	// dead context, and exits; nothing may linger. Keep-alive
	// connections park two goroutines each (transport read/write
	// loops), which on a small machine dwarfs the worker-count slack —
	// drop them first so the count measures handler goroutines, not
	// connection pooling.
	http.DefaultClient.CloseIdleConnections()
	tc.router.cfg.Client.CloseIdleConnections()
	waitGoroutines(t, baseline+len(tc.replicas)*goroutinesPerServer(tc.replicas[0]))
	tc.close()
	waitGoroutines(t, baseline)
}

// fakeReplica answers every request with status and its own URL as
// the body once delay has passed, unless the request is cancelled
// first; it counts those cancellations.
type fakeReplica struct {
	*httptest.Server
	cancelled atomic.Int32
}

func newFakeReplica(status int, delay time.Duration) *fakeReplica {
	f := &fakeReplica{}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
			w.WriteHeader(status)
			_, _ = io.WriteString(w, f.URL)
		case <-r.Context().Done():
			f.cancelled.Add(1)
		}
	}))
	return f
}

// TestRouterLadder drives forward over two fake replicas, a then b,
// through each way its attempt 0 can end: a retryable status, an
// answer after the hedge fired, a cancellation by the winning hedge,
// the request deadline, and a transport error. Only the transport
// error may charge a breaker (one failure opens it) or count as an
// upstream error, once every goroutine is gone; only an answer from a
// rung the hedge timer launched counts as a hedge win.
func TestRouterLadder(t *testing.T) {
	const stall = time.Hour // answers only once cancelled
	type reply struct {
		status int
		delay  time.Duration
	}
	for _, c := range []struct {
		name                 string
		a, b                 reply
		aDown                bool // a's server is closed before the request
		hedgeAfter, timeout  time.Duration
		winner               string // "a", "b", or "" for a deadline error
		hedges, wins, fovers float64
		upErrors             float64
		cancelled            string // the replica whose attempt gets cancelled
	}{
		{name: "404 fails over", a: reply{404, 0}, b: reply{200, 0}, hedgeAfter: 10 * time.Second,
			winner: "b", fovers: 1},
		{name: "attempt 0 wins after the hedge", a: reply{200, 100 * time.Millisecond}, b: reply{200, stall},
			hedgeAfter: 20 * time.Millisecond, winner: "a", hedges: 1, cancelled: "b"},
		{name: "hedge wins", a: reply{200, stall}, b: reply{200, 0}, hedgeAfter: 20 * time.Millisecond,
			winner: "b", hedges: 1, wins: 1, cancelled: "a"},
		{name: "deadline during attempt 0", a: reply{200, stall}, b: reply{200, 0}, hedgeAfter: 10 * time.Second,
			timeout: 100 * time.Millisecond, cancelled: "a"},
		{name: "transport error fails over", a: reply{200, 0}, aDown: true, b: reply{200, 0}, hedgeAfter: 10 * time.Second,
			winner: "b", fovers: 1, upErrors: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			a, b := newFakeReplica(c.a.status, c.a.delay), newFakeReplica(c.b.status, c.b.delay)
			fakes := map[string]*fakeReplica{"a": a, "b": b}
			rt, err := NewRouter(RouterConfig{
				Replicas: []string{a.URL, b.URL}, HedgeAfter: c.hedgeAfter, MaxHedges: 1,
				RequestTimeout: c.timeout, BreakerFailures: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.aDown {
				a.Close()
			}
			res, err := rt.forward(context.Background(), http.MethodGet, "/", nil, nil, []string{a.URL, b.URL})
			switch {
			case c.winner == "":
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("forward = %v, %v; want the request deadline", res, err)
				}
			case err != nil:
				t.Errorf("forward: %v", err)
			case res.status != http.StatusOK || string(res.body) != fakes[c.winner].URL:
				t.Errorf("answer %d %q, want 200 from %s", res.status, res.body, c.winner)
			}
			got := [4]float64{rt.forwards.Value(), rt.hedges.Value(), rt.hedgeWins.Value(), rt.failovers.Value()}
			if want := [4]float64{1, c.hedges, c.wins, c.fovers}; got != want {
				t.Errorf("forwards, hedges, hedge_wins, failovers = %v, want %v", got, want)
			}
			for name, f := range fakes {
				want := BreakerClosed
				if name == "a" && c.aDown {
					want = BreakerOpen
				}
				if st := rt.breakers.get(f.URL).State(); st != want {
					t.Errorf("replica %s breaker %v, want %v", name, st, want)
				}
				if name == c.cancelled {
					waitUntil(t, 2*time.Second, name+"'s attempt to be cancelled", func() bool { return f.cancelled.Load() == 1 })
				} else if n := f.cancelled.Load(); n != 0 {
					t.Errorf("replica %s saw %d cancelled attempts, want 0", name, n)
				}
			}
			rt.Close()
			rt.cfg.Client.CloseIdleConnections()
			a.Close()
			b.Close()
			waitGoroutines(t, baseline)
			// Every attempt has ended, losers included.
			if got := rt.upErrors.Value(); got != c.upErrors {
				t.Errorf("upstream_errors = %v, want %v", got, c.upErrors)
			}
		})
	}
}

// goroutinesPerServer approximates a quiescent test server's standing
// goroutine count: its pool workers plus the httptest machinery; used
// only as slack for leak checks while the cluster is still up.
func goroutinesPerServer(s *Server) int {
	return s.cfg.Workers + 4
}

// TestRouterHedgingCutsTailLatency is the acceptance check that
// hedging measurably shortens the tail under an injected fault: with
// slow-handler stalling half of all handler invocations 150ms, an
// unhedged router eats the stall on every unlucky request, while a
// hedged router escapes unless every attempt in its ladder draws a
// stall. Counting slow responses (not wall-clock percentiles) keeps
// the comparison robust on loaded CI machines; the hedged count's
// expectation is a quarter of the unhedged one, and the seeds are
// fixed.
func TestRouterHedgingCutsTailLatency(t *testing.T) {
	defer fault.Reset()
	const requests = 30
	const stallMs = 150
	const slowCutoff = 100 * time.Millisecond

	run := func(maxHedges int) int {
		tc := newTestCluster(t, 3, func(cfg *RouterConfig) {
			cfg.HedgeAfter = 5 * time.Millisecond
			cfg.MaxHedges = maxHedges
		})
		defer tc.close()
		// Same spec (prob 0.5, seed 7) for both runs: the unhedged run
		// consumes exactly one draw per request, the hedged run escapes
		// a stalled draw unless its hedges stall too.
		mustConfigure(t, fmt.Sprintf("slow-handler:0.5:7:%d", stallMs))
		body := diagnoseBody(t, "alpha", "Alg_rev", 3)
		slow := 0
		for i := 0; i < requests; i++ {
			start := time.Now()
			resp, err := http.Post(tc.front.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
			if time.Since(start) > slowCutoff {
				slow++
			}
		}
		fault.Reset()
		return slow
	}

	unhedged := run(0)
	hedged := run(2)
	t.Logf("slow responses (>%v): unhedged %d/%d, hedged %d/%d", slowCutoff, unhedged, requests, hedged, requests)
	if unhedged < requests/4 {
		t.Fatalf("fault site too quiet: only %d/%d unhedged requests stalled", unhedged, requests)
	}
	if hedged >= unhedged {
		t.Errorf("hedging did not cut the tail: %d slow hedged vs %d unhedged", hedged, unhedged)
	}
}

// TestRouterHedgingEscapesLoadStall is the same acceptance check
// against the cache-load-stall site: every request targets a dict id
// nobody has loaded yet, so each attempt pays a cold dictionary load
// that stalls with probability 0.5. An unhedged router eats the
// owner's stall; a hedged one escapes unless its hedge replicas'
// independent loads stall too.
func TestRouterHedgingEscapesLoadStall(t *testing.T) {
	defer fault.Reset()
	const requests = 24
	const stallMs = 150
	const slowCutoff = 100 * time.Millisecond
	blob := getFixture(t)["alpha"].blob
	template := diagnoseBody(t, "alpha", "Alg_rev", 3)

	run := func(maxHedges int, tag string) int {
		// Fresh replicas (cold caches) over a directory holding one
		// copy of the fixture dictionary per planned request.
		dir := t.TempDir()
		ids := make([]string, requests)
		for i := range ids {
			ids[i] = fmt.Sprintf("stall-%s-%02d", tag, i)
			if err := os.WriteFile(filepath.Join(dir, ids[i]+".dict"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		urls := make([]string, 3)
		for i := range urls {
			s := newTestServer(t, func(cfg *Config) { cfg.Dir = dir })
			b := httptest.NewServer(s.Handler())
			t.Cleanup(func() { b.Close(); _ = s.Shutdown(context.Background()) })
			urls[i] = b.URL
		}
		rt, err := NewRouter(RouterConfig{
			Replicas:   urls,
			HedgeAfter: 5 * time.Millisecond,
			MaxHedges:  maxHedges,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		front := httptest.NewServer(rt.Handler())
		t.Cleanup(front.Close)
		mustConfigure(t, fmt.Sprintf("cache-load-stall:0.5:7:%d", stallMs))
		slow := 0
		for _, id := range ids {
			body := bytes.Replace(template, []byte(`"dict":"alpha"`), []byte(fmt.Sprintf(`"dict":%q`, id)), 1)
			start := time.Now()
			resp, err := http.Post(front.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("dict %s: status %d", id, resp.StatusCode)
			}
			if time.Since(start) > slowCutoff {
				slow++
			}
		}
		fault.Reset()
		return slow
	}

	unhedged := run(0, "u")
	hedged := run(2, "h")
	t.Logf("slow responses (>%v): unhedged %d/%d, hedged %d/%d", slowCutoff, unhedged, requests, hedged, requests)
	if unhedged < requests/4 {
		t.Fatalf("fault site too quiet: only %d/%d unhedged requests stalled", unhedged, requests)
	}
	if hedged >= unhedged {
		t.Errorf("hedging did not escape load stalls: %d slow hedged vs %d unhedged", hedged, unhedged)
	}
}

// --- snapshot transfer ----------------------------------------------

// TestSnapshotTransferIntegrity: a dictionary moves between replicas
// as its exact on-disk bytes, SHA-256-verified at every hop, and the
// receiver serves byte-identical diagnoses afterward. Corrupt or
// undecodable snapshots never reach the receiver's disk.
func TestSnapshotTransferIntegrity(t *testing.T) {
	src := newTestServer(t, nil)
	sts := httptest.NewServer(src.Handler())
	defer sts.Close()
	defer func() { _ = src.Shutdown(context.Background()) }()

	// The destination starts with an empty dictionary directory.
	dstDir := t.TempDir()
	dst, err := New(Config{Dir: dstDir, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(dst.Handler())
	defer dts.Close()
	defer func() { _ = dst.Shutdown(context.Background()) }()

	n, digest, err := TransferSnapshot(context.Background(), nil, sts.URL, dts.URL, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	srcBytes := getFixture(t)["alpha"].blob
	wantSum := sha256.Sum256(srcBytes)
	if n != len(srcBytes) || digest != hex.EncodeToString(wantSum[:]) {
		t.Fatalf("transfer reported %d bytes sha %s, want %d bytes sha %s", n, digest, len(srcBytes), hex.EncodeToString(wantSum[:]))
	}
	installed, err := os.ReadFile(filepath.Join(dstDir, "alpha.dict"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(installed, srcBytes) {
		t.Fatal("installed snapshot bytes differ from the source file")
	}
	// The receiver answers the canonical request identically.
	wantStatus, wantBody := postDiagnose(t, sts.URL, diagnoseBody(t, "alpha", "Alg_rev", 5))
	gotStatus, gotBody := postDiagnose(t, dts.URL, diagnoseBody(t, "alpha", "Alg_rev", 5))
	if gotStatus != wantStatus || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("post-transfer diagnosis diverged: %d vs %d\n got: %s\n want: %s", gotStatus, wantStatus, gotBody, wantBody)
	}

	put := func(id string, body []byte, sha string) int {
		req, err := http.NewRequest(http.MethodPut, dts.URL+"/v1/dicts/"+id+"/snapshot", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(shaHeader, sha)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Wrong digest: rejected, nothing written.
	if code := put("evil", srcBytes, "deadbeef"); code != http.StatusUnprocessableEntity {
		t.Errorf("wrong-sha PUT = %d, want 422", code)
	}
	// Correct digest over garbage: the strict decoder rejects it.
	junk := []byte("not a dictionary")
	junkSum := sha256.Sum256(junk)
	if code := put("evil", junk, hex.EncodeToString(junkSum[:])); code != http.StatusBadRequest {
		t.Errorf("undecodable PUT = %d, want 400", code)
	}
	// Missing digest header: rejected.
	if code := put("evil", srcBytes, ""); code != http.StatusBadRequest {
		t.Errorf("missing-sha PUT = %d, want 400", code)
	}
	if _, err := os.Stat(filepath.Join(dstDir, "evil.dict")); !os.IsNotExist(err) {
		t.Error("a rejected snapshot reached disk")
	}
}

// --- end-to-end smoke ------------------------------------------------

// TestSmokeRouter boots two replicas and a router on real listeners,
// routes a diagnosis and an admin transfer through the front door,
// checks the aggregate readyz and the router metrics surface, and
// shuts everything down cleanly. `make smoke-router` runs this alone.
func TestSmokeRouter(t *testing.T) {
	var urls []string
	var servers []*Server
	for i := 0; i < 2; i++ {
		s := newTestServer(t, nil)
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		urls = append(urls, "http://"+s.Addr())
	}
	defer func() {
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	}()
	rt, err := NewRouter(RouterConfig{Replicas: urls, HedgeAfter: 25 * time.Millisecond, MaxHedges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	front := "http://" + rt.Addr()
	defer func() { _ = rt.Shutdown(context.Background()) }()

	resp, err := http.Get(front + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate readyz = %d", resp.StatusCode)
	}

	status, body := postDiagnose(t, front, diagnoseBody(t, "alpha", "Alg_rev", 5))
	if status != http.StatusOK {
		t.Fatalf("routed diagnose = %d body %s", status, body)
	}
	var dresp DiagnoseResponse
	if err := json.Unmarshal(body, &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Ranking[0].Arc != getFixture(t)["alpha"].top1 {
		t.Fatalf("routed top-1 = %d, want %d", dresp.Ranking[0].Arc, getFixture(t)["alpha"].top1)
	}

	// Admin transfer through the router: owner -> the other replica.
	owner := rt.Ring().Owner("alpha")
	other := urls[0]
	if other == owner {
		other = urls[1]
	}
	treq := fmt.Sprintf(`{"dict":"alpha","to":%q}`, other)
	tr, err := http.Post(front+"/v1/admin/transfer", "application/json", bytes.NewReader([]byte(treq)))
	if err != nil {
		t.Fatal(err)
	}
	tdata, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("transfer = %d body %s", tr.StatusCode, tdata)
	}

	mr, err := http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, series := range []string{"ddd_router_forwards_total", "ddd_router_hedges_total", "ddd_router_request_duration_seconds_bucket"} {
		if !bytes.Contains(mdata, []byte(series)) {
			t.Errorf("router metrics missing %s", series)
		}
	}
	var st RouterStats
	sr, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sdata, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if err := json.Unmarshal(sdata, &st); err != nil {
		t.Fatalf("stats undecodable: %v (%s)", err, sdata)
	}
	if st.Forwards < 1 || len(st.Replicas) != 2 {
		t.Errorf("stats = %+v, want >=1 forward over 2 replicas", st)
	}
}
