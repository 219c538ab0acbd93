package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func scrapeMetrics(tb testing.TB, url string) []byte {
	tb.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		tb.Errorf("metrics content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// parseMetrics reads exposition text into series → value, skipping
// comment lines.
func parseMetrics(tb testing.TB, data []byte) map[string]float64 {
	tb.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			tb.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			tb.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint covers the scrape surface: the key series
// families are present with believable values after traffic, and two
// scrapes with no traffic in between are byte-identical (the
// determinism contract of obs rendering; /metrics does not count
// itself).
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	if status, _ := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "Alg_rev", 5)); status != http.StatusOK {
		t.Fatalf("diagnose = %d", status)
	}

	first := scrapeMetrics(t, ts.URL)
	second := scrapeMetrics(t, ts.URL)
	if !bytes.Equal(first, second) {
		t.Errorf("idle scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	m := parseMetrics(t, first)
	if v := m[`ddd_http_requests_total{endpoint="/v1/diagnose"}`]; v != 1 {
		t.Errorf("diagnose requests_total = %v, want 1", v)
	}
	if v := m[`ddd_http_request_duration_seconds_count{endpoint="/v1/diagnose"}`]; v != 1 {
		t.Errorf("diagnose duration count = %v, want 1", v)
	}
	if v := m["ddd_cache_misses_total"]; v != 1 {
		t.Errorf("cache misses = %v, want 1", v)
	}
	if v := m["ddd_cache_loads_total"]; v != 1 {
		t.Errorf("cache loads = %v, want 1", v)
	}
	if v := m["ddd_pool_completed_total"]; v != 1 {
		t.Errorf("pool completed = %v, want 1", v)
	}
	if _, ok := m["ddd_pool_queue_depth"]; !ok {
		t.Error("pool queue depth gauge missing")
	}
	if v, ok := m["ddd_cache_capacity_bytes"]; !ok || v <= 0 {
		t.Errorf("cache capacity = %v ok=%v", v, ok)
	}
	if v := m["ddd_server_ready"]; v != 1 {
		t.Errorf("server ready = %v, want 1 (no preload list)", v)
	}
	// A latency histogram renders cumulative buckets up to +Inf.
	if v := m[`ddd_http_request_duration_seconds_bucket{endpoint="/v1/diagnose",le="+Inf"}`]; v != 1 {
		t.Errorf("+Inf bucket = %v, want 1", v)
	}
	// The Default registry rides along: the service diagnosis path
	// bumps the process-wide core diagnosis counter.
	if v := m["ddd_core_diagnoses_total"]; v < 1 {
		t.Errorf("core diagnoses = %v, want >= 1", v)
	}
	// The word-parallel suspect-pruning counter (DESIGN.md §17) is on
	// the same registry, so the byte-identical double scrape above
	// covers its determinism; here we pin that it renders at all.
	if _, ok := m["ddd_suspect_words_total"]; !ok {
		t.Error("ddd_suspect_words_total missing from scrape")
	}
}

// TestBackpressureRetryAfter asserts the 429 contract: a full queue
// answers with a Retry-After header derived from the actual queue
// depth and a machine-readable JSON body (code + retry hint) that
// carries the same value, not just prose.
func TestBackpressureRetryAfter(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker, then fill the one queue slot: the next
	// enqueue must shed. Wait for the worker to pick up the blocker
	// first, otherwise it may still sit in the queue slot itself.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.pool.Submit(func() {}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json",
		bytes.NewReader(diagnoseBody(t, "alpha", "Alg_rev", 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	// One worker busy, one job queued: depth/workers = 1, so the hint
	// is 1 + 1 = 2 seconds.
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unparseable 429 body %s: %v", body, err)
	}
	if eb.Code != "busy" || eb.Error == "" || eb.RetrySeconds != 2 {
		t.Errorf("429 body = %+v, want code \"busy\" with retry_after_s 2", eb)
	}
	// Header and body must stay in lockstep — a client reading either
	// one sees the same hint.
	if hdr := resp.Header.Get("Retry-After"); hdr != strconv.Itoa(eb.RetrySeconds) {
		t.Errorf("header %q != body hint %d", hdr, eb.RetrySeconds)
	}

	// The shed shows up as a rejection on /metrics.
	m := parseMetrics(t, scrapeMetrics(t, ts.URL))
	if v := m["ddd_pool_rejected_total"]; v < 1 {
		t.Errorf("pool rejected = %v, want >= 1", v)
	}

	close(gate)
	_ = s.Shutdown(context.Background())
}

// TestRetryAfterScalesWithQueueDepth pins the hint derivation: the
// shed reply promises roughly the time the queued work needs to
// drain (1 + depth/workers), clamped to [1, 8] seconds.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.QueueDepth = 64
	})
	defer s.Shutdown(context.Background())

	// Park both workers so every further Submit stays in the queue and
	// Depth() is exact.
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if err := s.pool.Submit(func() { started <- struct{}{}; <-gate }); err != nil {
			t.Fatal(err)
		}
		<-started
	}

	depth := 0
	fill := func(n int) {
		for ; depth < n; depth++ {
			if err := s.pool.Submit(func() {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct{ depth, want int }{
		{0, 1},  // empty queue: floor
		{1, 1},  // 1/2 truncates to 0
		{4, 3},  // 1 + 4/2
		{10, 6}, // 1 + 10/2
		{20, 8}, // 1 + 10 clamps to the 8 s ceiling
	} {
		fill(tc.depth)
		if got := s.retryAfterSeconds(); got != tc.want {
			t.Errorf("depth %d: retryAfterSeconds = %d, want %d", tc.depth, got, tc.want)
		}
	}
}

// TestRetryAfterDrainFloor: a draining server tells clients to wait
// at least 2 s even with an empty queue — retrying in 1 s would just
// hit the dying process again.
func TestRetryAfterDrainFloor(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 4
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.pool.Drain()
	if got := s.retryAfterSeconds(); got != 2 {
		t.Errorf("draining retryAfterSeconds = %d, want 2", got)
	}

	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json",
		bytes.NewReader(diagnoseBody(t, "alpha", "Alg_rev", 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body %s, want 503", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unparseable 503 body %s: %v", body, err)
	}
	if eb.Code != "draining" || eb.RetrySeconds != 2 {
		t.Errorf("503 body = %+v, want code \"draining\" with retry_after_s 2", eb)
	}
	if hdr := resp.Header.Get("Retry-After"); hdr != strconv.Itoa(eb.RetrySeconds) {
		t.Errorf("header %q != body hint %d", hdr, eb.RetrySeconds)
	}
	_ = s.Shutdown(context.Background())
}

// TestPprofGating: the profile endpoints exist only when the operator
// opted in.
func TestPprofGating(t *testing.T) {
	off := newTestServer(t, nil)
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}
	_ = off.Shutdown(context.Background())

	on := newTestServer(t, func(cfg *Config) { cfg.EnablePprof = true })
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, err = http.Get(tsOn.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in = %d, want 200", resp.StatusCode)
	}
	_ = on.Shutdown(context.Background())
}
