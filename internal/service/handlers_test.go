package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(tb testing.TB, mutate func(*Config)) *Server {
	tb.Helper()
	cfg := Config{
		Dir:            writeDictDir(tb),
		RequestTimeout: 30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func postDiagnose(tb testing.TB, url string, body []byte) (int, []byte) {
	tb.Helper()
	resp, err := http.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, data
}

// fullRankingResponse is the answer diagnoseOne gave when it ranked
// every suspect: it truncates the full ranking to K, or runs AutoK over
// the full ranking under auto_k.
func fullRankingResponse(t *testing.T, ent *Entry, req *DiagnoseRequest) *DiagnoseResponse {
	t.Helper()
	method, _ := core.ParseMethod(req.Method)
	rows, cols := ent.Dict.Shape()
	b, err := parseBehavior(req.Behavior, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	ranked := ent.Dict.Diagnose(b, method, 0)
	resp := &DiagnoseResponse{
		Dict:     ent.ID,
		Method:   method.String(),
		Suspects: len(ent.Dict.Suspects),
		Patterns: len(ent.Dict.Patterns),
		Clk:      ent.Dict.Clk,
	}
	k := req.K
	if req.AutoK {
		maxK := req.MaxK
		if maxK <= 0 {
			maxK = 10
		}
		k, resp.Gap = core.AutoK(ranked, method, maxK)
		resp.AutoK = true
	}
	if k <= 0 || k > len(ranked) {
		k = len(ranked)
	}
	resp.K = k
	for i, r := range ranked[:k] {
		resp.Ranking = append(resp.Ranking, RankedEntry{Rank: i + 1, Arc: int(r.Arc), Score: r.Score})
	}
	return resp
}

// TestDiagnoseOneMatchesFullRanking checks that diagnoseOne, which
// ranks only the candidates its answer holds, answers every K and
// auto_k request as the truncation of the full ranking does, byte for
// byte, under every method: k of −1, 0, 1, n and n+1, and auto_k with
// max_k of 0 (the default 10), 1 and MaxInt64, which must not overflow.
// The behaviors are the fixture's failing die and the all-pass one,
// whose scores tie in large groups.
func TestDiagnoseOneMatchesFullRanking(t *testing.T) {
	fx := getFixture(t)["alpha"]
	cd, nIn, err := core.LoadCompressed(bytes.NewReader(fx.blob))
	if err != nil {
		t.Fatal(err)
	}
	ent := &Entry{ID: "alpha", Dict: cd, NInputs: nIn}
	n := len(cd.Suspects)
	rows, cols := cd.Shape()
	pass := make([]string, rows)
	for i := range pass {
		pass[i] = strings.Repeat("0", cols)
	}
	var reqs []DiagnoseRequest
	for _, k := range []int{-1, 0, 1, n, n + 1} {
		reqs = append(reqs, DiagnoseRequest{K: k})
	}
	for _, maxK := range []int{0, 1, math.MaxInt64} {
		reqs = append(reqs, DiagnoseRequest{AutoK: true, MaxK: maxK})
	}
	for _, behavior := range [][]string{fx.behavior, pass} {
		for _, m := range []string{"I", "II", "III", "rev", "L1", "chebyshev", "loglik"} {
			for _, req := range reqs {
				req.Dict, req.Method, req.Behavior = "alpha", m, behavior
				got, status, msg := diagnoseOne(ent, &req)
				if status != 0 {
					t.Fatalf("%+v: status %d: %s", req, status, msg)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(fullRankingResponse(t, ent, &req))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("method %s k=%d auto_k=%v max_k=%d:\n got %s\nwant %s", m, req.K, req.AutoK, req.MaxK, gotJSON, wantJSON)
				}
			}
		}
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	fx := getFixture(t)["alpha"]
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "Alg_rev", 5))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp DiagnoseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dict != "alpha" || resp.Method != "Alg_rev" {
		t.Errorf("header fields = %q %q", resp.Dict, resp.Method)
	}
	// K clamps to the ranked length (Alg_rev only ranks suspects
	// consistent with the observed behavior).
	if resp.K < 1 || resp.K > 5 || len(resp.Ranking) != resp.K {
		t.Errorf("K = %d with %d ranking entries", resp.K, len(resp.Ranking))
	}
	if resp.Ranking[0].Arc != fx.top1 || resp.Ranking[0].Rank != 1 {
		t.Errorf("ranking = %+v, want top-1 arc %d", resp.Ranking, fx.top1)
	}

	// Every built-in method name and extension error function resolves.
	for _, m := range []string{"I", "II", "III", "Alg_sim-II", "rev", "L1", "chebyshev", "loglik"} {
		status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", m, 3))
		if status != http.StatusOK {
			t.Errorf("method %q: status %d body %s", m, status, body)
		}
	}
}

func TestDiagnoseAutoK(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	fx := getFixture(t)["alpha"]
	rows := make([]string, len(fx.behavior))
	for i, r := range fx.behavior {
		rows[i] = fmt.Sprintf("%q", r)
	}
	body := []byte(fmt.Sprintf(`{"dict":"alpha","auto_k":true,"max_k":8,"behavior":[%s]}`,
		strings.Join(rows, ",")))
	status, data := postDiagnose(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d body %s", status, data)
	}
	var resp DiagnoseResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.AutoK || resp.K < 1 || resp.K > 8 || len(resp.Ranking) != resp.K {
		t.Errorf("auto-K response: K=%d auto=%v ranking=%d", resp.K, resp.AutoK, len(resp.Ranking))
	}
	if resp.Ranking[0].Arc != fx.top1 {
		t.Errorf("auto-K top-1 = %d, want %d", resp.Ranking[0].Arc, fx.top1)
	}
}

func TestDiagnoseRejections(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"dict":"alpha","nope":1}`, http.StatusBadRequest},
		{"invalid id", `{"dict":"../etc/passwd","behavior":["0"]}`, http.StatusBadRequest},
		{"missing dict", `{"behavior":["0"]}`, http.StatusBadRequest},
		{"unknown dict", `{"dict":"nosuch","behavior":["0"]}`, http.StatusNotFound},
		{"unknown method", string(diagnoseBody(t, "alpha", "magic", 3)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := postDiagnose(t, ts.URL, []byte(tc.body))
		if status != tc.want {
			t.Errorf("%s: status = %d body %s, want %d", tc.name, status, body, tc.want)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %s not structured", tc.name, body)
		}
	}

	// Behavior shape mismatch: right dict, wrong matrix.
	status, body := postDiagnose(t, ts.URL, []byte(`{"dict":"alpha","behavior":["01"]}`))
	if status != http.StatusBadRequest {
		t.Errorf("shape mismatch: status = %d body %s", status, body)
	}
}

func TestOpsEndpoints(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.Preload = []string{"alpha"} })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Errorf("healthz = %d", status)
	}
	// Not ready until the preload list is warm.
	if status, _ := get("/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz before warmup = %d, want 503", status)
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Errorf("readyz after warmup = %d", status)
	}

	status, body := get("/v1/dicts")
	if status != http.StatusOK {
		t.Fatalf("dicts = %d", status)
	}
	var listing struct {
		Dicts []struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		} `json:"dicts"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Dicts) != 2 || listing.Dicts[0].ID != "alpha" || listing.Dicts[1].ID != "beta" {
		t.Errorf("listing = %+v", listing)
	}
	if !listing.Dicts[0].Cached || listing.Dicts[1].Cached {
		t.Errorf("cached flags = %+v, want alpha warm, beta cold", listing.Dicts)
	}

	status, body = get("/v1/dicts/alpha")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"suspects"`)) {
		t.Errorf("dict info = %d %s", status, body)
	}
	if status, _ = get("/v1/dicts/nosuch"); status != http.StatusNotFound {
		t.Errorf("missing dict info = %d", status)
	}

	status, body = get("/stats")
	if status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Loads < 1 || !st.Ready {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentDeterministicResponses is the acceptance concurrency
// test: 32 parallel clients hammer the service with a mix of
// dictionary ids under a cache cap small enough to force evictions;
// identical requests must yield byte-identical responses throughout,
// and graceful shutdown must drain in-flight requests without dropping
// a response.
func TestConcurrentDeterministicResponses(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		// Budget below one dictionary's footprint: alpha and beta
		// thrash a single shard, so evictions are guaranteed.
		cfg.CacheBytes = 1
		cfg.CacheShards = 1
		cfg.Workers = 4
		cfg.QueueDepth = 256
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := []string{"alpha", "beta"}
	want := make(map[string][]byte)
	for _, id := range ids {
		status, body := postDiagnose(t, ts.URL, diagnoseBody(t, id, "Alg_rev", 7))
		if status != http.StatusOK {
			t.Fatalf("%s priming request: %d %s", id, status, body)
		}
		want[id] = body
		var resp DiagnoseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Ranking[0].Arc != getFixture(t)[id].top1 {
			t.Fatalf("%s top-1 = %d, want %d", id, resp.Ranking[0].Arc, getFixture(t)[id].top1)
		}
	}

	before := parseMetrics(t, scrapeMetrics(t, ts.URL))

	const clients = 32
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				id := ids[(c+r)%len(ids)]
				status, body := postDiagnose(t, ts.URL, diagnoseBody(t, id, "Alg_rev", 7))
				if status == http.StatusTooManyRequests {
					continue // backpressure is a legal answer under load
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d body %s", c, status, body)
					continue
				}
				if !bytes.Equal(body, want[id]) {
					errs <- fmt.Errorf("client %d: %s response diverged:\n got %s\nwant %s", c, id, body, want[id])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Cache.Evictions == 0 {
		t.Errorf("no cache evictions under a %d-byte cap: %+v", 1, st.Cache)
	}
	if st.Cache.Loads == 0 || st.Cache.Misses == 0 {
		t.Errorf("cache never loaded: %+v", st.Cache)
	}

	// Counter monotonicity under concurrency: every *_total series
	// present before the hammering must not have moved backward, and
	// the request counter must account for the traffic that got a
	// non-shed answer.
	after := parseMetrics(t, scrapeMetrics(t, ts.URL))
	for series, b := range before {
		if !strings.Contains(series, "_total") {
			continue
		}
		if a, ok := after[series]; !ok || a < b {
			t.Errorf("counter %s went backward: %v -> %v (present=%v)", series, b, a, ok)
		}
	}
	reqSeries := `ddd_http_requests_total{endpoint="/v1/diagnose"}`
	if after[reqSeries] < before[reqSeries]+1 {
		t.Errorf("requests_total did not advance: %v -> %v", before[reqSeries], after[reqSeries])
	}
	if after["ddd_cache_evictions_total"] == 0 {
		t.Error("evictions counter missing from /metrics despite cache evictions")
	}

	// Graceful shutdown: everything the pool accepted must complete.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st = s.Stats()
	if st.Pool.Completed != st.Pool.Submitted {
		t.Errorf("drain dropped work: submitted %d completed %d", st.Pool.Submitted, st.Pool.Completed)
	}
}

// TestShutdownDrainsInFlight drives a real listener: clients fire
// while the server shuts down; every accepted request must receive a
// complete response (200 or a clean 503), never a truncated or
// dropped one.
func TestShutdownDrainsInFlight(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.QueueDepth = 128
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()

	const clients = 24
	body := diagnoseBody(t, "alpha", "Alg_rev", 5)
	want := func() []byte {
		status, data := postDiagnose(t, url, body)
		if status != http.StatusOK {
			t.Fatalf("prime: %d %s", status, data)
		}
		return data
	}()

	results := make(chan error, clients)
	var launched sync.WaitGroup
	for c := 0; c < clients; c++ {
		launched.Add(1)
		go func(c int) {
			launched.Done()
			resp, err := http.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
			if err != nil {
				// Connection refused after the listener closed: the
				// request was never accepted, which is fine — it was
				// not dropped mid-flight.
				results <- nil
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				results <- fmt.Errorf("client %d: truncated response: %v", c, err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				if !bytes.Equal(data, want) {
					results <- fmt.Errorf("client %d: diverged response %s", c, data)
					return
				}
			case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				// Clean shed during drain.
			default:
				results <- fmt.Errorf("client %d: status %d body %s", c, resp.StatusCode, data)
				return
			}
			results <- nil
		}(c)
	}
	launched.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for c := 0; c < clients; c++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	st := s.Stats()
	if st.Pool.Completed != st.Pool.Submitted {
		t.Errorf("drain dropped work: submitted %d completed %d", st.Pool.Submitted, st.Pool.Completed)
	}
}

func TestBatchingCoalescesSameDictionary(t *testing.T) {
	// One worker and a gate on the first flush: requests that arrive
	// while the worker is busy pile into the pending batch and ride
	// one pool job.
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 64
		cfg.BatchWorkers = 2
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker so subsequent requests coalesce.
	gate := make(chan struct{})
	if err := s.pool.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var wg sync.WaitGroup
	body := diagnoseBody(t, "alpha", "Alg_rev", 3)
	statuses := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			statuses[c], _ = postDiagnose(t, ts.URL, body)
		}(c)
	}
	// Wait for the requests to enqueue behind the gate, then release.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.batch.mu.Lock()
		n := len(s.batch.pending["alpha"])
		s.batch.mu.Unlock()
		if n == clients {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for c, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("client %d status = %d", c, status)
		}
	}
	bs := s.batch.Stats()
	if bs.Batches == 0 || bs.BatchedRequests < int64(clients) {
		t.Errorf("batch stats = %+v, want >=1 batch covering %d requests", bs, clients)
	}
	if bs.BatchedRequests/max(bs.Batches, 1) < 2 {
		t.Errorf("no coalescing: %d requests over %d batches", bs.BatchedRequests, bs.Batches)
	}
	_ = s.Shutdown(context.Background())
}

func TestRequestDeadline(t *testing.T) {
	// A gated worker holds the queue; a request with a tiny deadline
	// must come back 504 without waiting for the worker.
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 8
		cfg.RequestTimeout = 30 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	if err := s.pool.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	status, body := postDiagnose(t, ts.URL, diagnoseBody(t, "alpha", "Alg_rev", 3))
	if status != http.StatusGatewayTimeout {
		t.Errorf("status = %d body %s, want 504", status, body)
	}
	close(gate)
	_ = s.Shutdown(context.Background())
}

func TestDegradedBatchLoadDeadline(t *testing.T) {
	// A batch item waiting on another caller's in-flight load that gives
	// up on its own deadline answers 504 "deadline", as the items after
	// it do, not 500 "load_failed".
	s := newTestServer(t, nil)
	started, release := make(chan struct{}), make(chan struct{})
	s.cache = NewCache(func(id string) (*Entry, error) {
		close(started)
		<-release
		return fakeEntry(id, 1), nil
	}, 1<<20, 2)
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		if _, err := s.cache.GetCtx(context.Background(), "alpha"); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *BatchResponse, 1)
	go func() { done <- s.runDegradedBatch(ctx, []DiagnoseRequest{{Dict: "alpha"}, {Dict: "alpha"}}) }()
	// Item 0 counts its miss just before it waits on the load.
	for wait := 0; s.cache.Stats().Misses < 2; wait++ {
		if wait == 5000 {
			t.Fatal("the batch never joined the in-flight load")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	resp := <-done
	close(release)
	<-loaded
	for _, item := range resp.Results {
		if item.Status != http.StatusGatewayTimeout || item.Code != "deadline" {
			t.Errorf("item %d: status %d code %q error %q, want 504 deadline", item.Index, item.Status, item.Code, item.Error)
		}
	}
	if resp.Failed != 2 {
		t.Errorf("failed = %d, want 2", resp.Failed)
	}
	_ = s.Shutdown(context.Background())
}

func TestDictInfoDeadline(t *testing.T) {
	// A dictionary-info request waiting on a load that does not finish
	// must come back 504 at its deadline, not when the load does.
	s := newTestServer(t, func(cfg *Config) { cfg.RequestTimeout = 30 * time.Millisecond })
	started, release := make(chan struct{}), make(chan struct{})
	s.cache = NewCache(func(id string) (*Entry, error) {
		close(started)
		<-release
		return fakeEntry(id, 1), nil
	}, 1<<20, 2)
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		if _, err := s.cache.GetCtx(context.Background(), "alpha"); err != nil {
			t.Error(err)
		}
	}()
	<-started

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/dicts/alpha", nil))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("GET /v1/dicts/alpha still waiting on the load 5s past its 30ms deadline")
	}
	close(release)
	<-done
	<-loaded
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d body %s, want 504", rec.Code, rec.Body)
	}
	_ = s.Shutdown(context.Background())
}
