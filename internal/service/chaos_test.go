package service

// The chaos suite: every test arms fault sites (internal/fault) with
// probability 1 and a fixed seed, so failures are injected on every
// hit and the assertions are deterministic. Fault state is process-
// global, so none of these tests use t.Parallel, and each defers
// fault.Reset() so an armed site never leaks into the next test. The
// suite runs under -race in CI (make chaos / make ci).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// waitGoroutines polls until the goroutine count settles back to at
// most want, failing after two seconds — the leak check for paths
// that spawn watchers (batch contexts) or park workers.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, want <= %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustConfigure(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Configure(spec); err != nil {
		t.Fatal(err)
	}
}

// TestChaosLoadErrorDoesNotPoisonSingleflight: an injected loader
// failure must answer the requests that hit it with a structured
// error and leave nothing cached — once the fault clears, the next
// request loads the dictionary normally.
func TestChaosLoadErrorDoesNotPoisonSingleflight(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	mustConfigure(t, "cache-load-error:1:42")
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusInternalServerError {
		t.Fatalf("status under injected load error = %d, body %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
	}
	if !strings.Contains(eb.Error, "injected fault") {
		t.Errorf("error body %q does not surface the load failure", eb.Error)
	}
	if s.cache.Contains("alpha") {
		t.Fatal("failed load left an entry resident (poisoned cache)")
	}

	fault.Reset()
	status, body = postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusOK {
		t.Fatalf("status after fault cleared = %d, body %s (singleflight poisoned)", status, body)
	}
	if !s.cache.Contains("alpha") {
		t.Error("successful load after the fault cleared is not resident")
	}
}

// TestChaosLoadRetriesExhaust: with -load-retries configured, an
// always-failing load is attempted 1+retries times inside one request
// and the retries counter records the backoff attempts.
func TestChaosLoadRetriesExhaust(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, func(c *Config) { c.LoadRetries = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	mustConfigure(t, "cache-load-error:1:7")
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s", status, body)
	}
	st := s.cache.Stats()
	if st.Loads != 3 || st.LoadErrors != 3 || st.Retries != 2 {
		t.Errorf("loads/errors/retries = %d/%d/%d, want 3/3/2", st.Loads, st.LoadErrors, st.Retries)
	}
}

// TestChaosCorruptDictionaryRejected: corrupted dictionary bytes must
// fail decoding with a 500 (never a partial entry) and load cleanly
// once the corruption stops.
func TestChaosCorruptDictionaryRejected(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	mustConfigure(t, "dict-corrupt:1:9")
	resp, err := http.Get(ts.URL + "/v1/dicts/alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt dictionary answered %d, want 500", resp.StatusCode)
	}
	if s.cache.Contains("alpha") {
		t.Fatal("corrupt dictionary became resident")
	}

	fault.Reset()
	resp, err = http.Get(ts.URL + "/v1/dicts/alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean reload answered %d, want 200", resp.StatusCode)
	}
}

// TestChaosWorkerPanicContained: injected worker panics must answer
// the affected requests with 500, keep every pool worker alive, and
// leave the service fully functional once the fault clears.
func TestChaosWorkerPanicContained(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, func(c *Config) { c.Workers = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	mustConfigure(t, "worker-panic:1:3")
	// More panicking requests than workers: if a panic killed its
	// worker, the pool would wedge before the loop finishes.
	for i := 0; i < 6; i++ {
		status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
		if status != http.StatusInternalServerError {
			t.Fatalf("request %d under worker-panic: status = %d, body %s", i, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("panic response is not structured JSON: %v (%s)", err, body)
		}
	}
	// runBatch answers each request before it re-panics into the pool
	// worker that counts the panic, so the sixth 500 can arrive before
	// the counter moves: wait for the count to reach 6, then check it
	// is exactly 6.
	waitUntil(t, 5*time.Second, "pool to count six panics", func() bool {
		return s.pool.Stats().Panics >= 6
	})
	if got := s.pool.Stats().Panics; got != 6 {
		t.Errorf("pool panics = %d, want 6", got)
	}

	fault.Reset()
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusOK {
		t.Fatalf("status after panics cleared = %d, body %s (pool did not survive)", status, body)
	}
}

// TestChaosDegradedBatchDeterministic: with one dictionary resident
// and loads failing, a mixed batch answers the resident items and
// skip-and-reports the broken dictionary — byte-identically across
// repeated sends.
func TestChaosDegradedBatchDeterministic(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	// Warm alpha, then break every further load: beta becomes the
	// degraded member of the batch.
	if _, err := s.cache.GetCtx(context.Background(), "alpha"); err != nil {
		t.Fatal(err)
	}
	mustConfigure(t, "cache-load-error:1:5")

	item := func(id string) string {
		var req DiagnoseRequest
		if err := json.Unmarshal(diagnoseBody(t, id, "", 3), &req); err != nil {
			t.Fatal(err)
		}
		data, _ := json.Marshal(req)
		return string(data)
	}
	body := []byte(fmt.Sprintf(`{"requests":[%s,%s,%s]}`, item("alpha"), item("beta"), item("alpha")))

	send := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/diagnose/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	status, first := send()
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, first)
	}
	var br BatchResponse
	if err := json.Unmarshal(first, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Failed != 1 {
		t.Fatalf("results/failed = %d/%d, want 3/1 (%s)", len(br.Results), br.Failed, first)
	}
	if br.Results[0].Status != http.StatusOK || br.Results[2].Status != http.StatusOK {
		t.Errorf("resident alpha items failed: %s", first)
	}
	if br.Results[1].Status != http.StatusInternalServerError || br.Results[1].Code != "load_failed" {
		t.Errorf("beta item = status %d code %q, want 500/load_failed", br.Results[1].Status, br.Results[1].Code)
	}
	if br.Results[1].Response != nil {
		t.Error("failed item carries a response")
	}

	for i := 0; i < 3; i++ {
		if _, again := send(); !bytes.Equal(first, again) {
			t.Fatalf("degraded batch is not byte-deterministic:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestChaosDeadlineFreesWorkerSlot: a request whose deadline expires
// while its worker is stuck in a stalled load answers 504 with the
// machine-readable deadline contract, increments the cancellations
// counter, and — once the stall passes — the slot serves live traffic
// again.
func TestChaosDeadlineFreesWorkerSlot(t *testing.T) {
	defer fault.Reset()
	before := runtime.NumGoroutine()
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.RequestTimeout = 100 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())

	mustConfigure(t, "cache-load-stall:1:1:400")
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled request answered %d, body %s, want 504", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "deadline" || eb.RetrySeconds < 1 {
		t.Errorf("504 body = %+v, want code deadline with retry hint", eb)
	}
	if got := s.cancellations.Load(); got < 1 {
		t.Errorf("cancellations = %d, want >= 1", got)
	}

	// Let the stalled load finish, clear the fault, and prove the one
	// worker slot is live again.
	fault.Reset()
	time.Sleep(500 * time.Millisecond)
	status, body = postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusOK {
		t.Fatalf("status after stall = %d, body %s (worker slot not freed)", status, body)
	}

	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Everything the chaos path spawned (workers, batch watchers,
	// stalled loads) must be gone after shutdown.
	waitGoroutines(t, before+2)
}

// TestChaosSlowHandlerTimesOut: the slow-handler site delays the
// handler past its own deadline, driving the pre-enqueue 504 path.
func TestChaosSlowHandlerTimesOut(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	// Warm the cache so only the injected delay can slow the request.
	if _, err := s.cache.GetCtx(context.Background(), "alpha"); err != nil {
		t.Fatal(err)
	}
	mustConfigure(t, "slow-handler:1:2:200")
	start := time.Now()
	status, _ := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	// The sleep happens before the deadline starts ticking, so the
	// request takes injected delay + timeout, never less.
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("request returned after %v, before the injected delay elapsed", d)
	}
}

// TestStartSetsHTTPServerTimeouts is the regression test for the
// listener's transport protections: every timeout must be set, and
// the write deadline must outlive the request deadline.
func TestStartSetsHTTPServerTimeouts(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = 45 * time.Second })
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()

	srv := s.httpSrv
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts not set: header %v read %v write %v idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout < s.cfg.RequestTimeout {
		t.Errorf("WriteTimeout %v < RequestTimeout %v: the server would cut off slow-but-legal responses",
			srv.WriteTimeout, s.cfg.RequestTimeout)
	}
}

// TestChaosMetricsExposeFailureCounters: after a chaos run, /metrics
// carries the failure-path series with the values the run produced.
func TestChaosMetricsExposeFailureCounters(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, func(c *Config) { c.LoadRetries = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	mustConfigure(t, "cache-load-error:1:11")
	if status, _ := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "", 3)); status != http.StatusInternalServerError {
		t.Fatalf("expected injected failure, got %d", status)
	}
	fault.Reset()
	mustConfigure(t, "worker-panic:1:11")
	if status, _ := postDiagnose(t, ts.URL, diagnoseBody(t, "beta", "", 3)); status != http.StatusInternalServerError {
		t.Fatalf("expected injected panic, got %d", status)
	}
	fault.Reset()

	// runBatch answers the batch's requests before it re-panics into
	// the pool worker that counts the panic, so the 500 can arrive
	// before the counter moves: wait for it to move, then check it
	// moved exactly once.
	waitUntil(t, 5*time.Second, "ddd_pool_panics_total to count the panic", func() bool {
		return parseMetrics(t, scrapeMetrics(t, ts.URL))[`ddd_pool_panics_total`] >= 1
	})
	vals := parseMetrics(t, scrapeMetrics(t, ts.URL))
	if got := vals[`ddd_retries_total`]; got != 1 {
		t.Errorf("ddd_retries_total = %v, want 1", got)
	}
	if got := vals[`ddd_pool_panics_total`]; got != 1 {
		t.Errorf("ddd_pool_panics_total = %v, want 1", got)
	}
	if got := vals[`ddd_faults_injected_total{site="cache-load-error"}`]; got < 2 {
		t.Errorf(`ddd_faults_injected_total{site="cache-load-error"} = %v, want >= 2`, got)
	}
	if got := vals[`ddd_faults_injected_total{site="worker-panic"}`]; got < 1 {
		t.Errorf(`ddd_faults_injected_total{site="worker-panic"} = %v, want >= 1`, got)
	}
	if _, ok := vals[`ddd_cancellations_total`]; !ok {
		t.Error("ddd_cancellations_total series missing from /metrics")
	}
}
