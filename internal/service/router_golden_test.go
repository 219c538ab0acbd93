package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// goldenRouterSHA256 pins the router tier's HTTP surface: status,
// contract headers and body of a fixed request list sent through a
// two-replica router, plus the non-admin requests again straight to
// one replica. Any change to routing, relaying, merging, error
// rendering or request decoding moves it.
const goldenRouterSHA256 = "6da3146506f813fe212874c6c20fc48ab662a6eba373f6838a633130df83493d"

type goldenRequest struct {
	method, path, body string
	admin              bool // router-only endpoint
}

// goldenRouterRequests is the fixed request list of
// TestRouterResponsesGolden.
func goldenRouterRequests(t *testing.T) []goldenRequest {
	alpha := string(diagnoseBody(t, "alpha", "", 3))
	beta := string(diagnoseBody(t, "beta", "Alg_sim-II", 0))
	batch := func(items ...string) string {
		return `{"requests":[` + strings.Join(items, ",") + `]}`
	}
	// The split batch mixes the two fixtures with unknown ids, so its
	// items land on both owners whatever ports the replicas bound.
	split := []string{alpha, beta}
	for _, id := range splitBatchIDs {
		split = append(split, fmt.Sprintf(`{"dict":%q,"behavior":[]}`, id))
	}
	over := make([]string, maxBatchItems+1)
	for i := range over {
		over[i] = alpha
	}
	return []goldenRequest{
		{"POST", "/v1/diagnose", alpha, false},
		{"POST", "/v1/diagnose", `{"dict":"alpha",`, false},
		{"POST", "/v1/diagnose", `{"dict":"alpha","bogus":1}`, false},
		{"POST", "/v1/diagnose", `{"dict":"nosuch","behavior":["0"]}`, false},
		{"POST", "/v1/diagnose", `{"dict":"../x","behavior":["0"]}`, false},
		{"POST", "/v1/diagnose/batch", batch(alpha, alpha), false},
		{"POST", "/v1/diagnose/batch", batch(split...), false},
		{"POST", "/v1/diagnose/batch", batch(), false},
		{"POST", "/v1/diagnose/batch", batch(over...), false},
		{"POST", "/v1/diagnose/batch", `{"requests":[`, false},
		{"GET", "/v1/dicts", "", false},
		{"GET", "/v1/dicts/beta", "", false},
		{"GET", "/v1/dicts/alpha/snapshot", "", false},
		{"GET", "/v1/dicts/.hidden", "", false},
		{"GET", "/healthz", "", false},
		{"GET", "/readyz", "", false},
		{"POST", "/v1/admin/replicas", `{"op":`, true},
		{"POST", "/v1/admin/replicas", `{"op":"join","bogus":1}`, true},
		{"POST", "/v1/admin/replicas", `{"op":"frob","replica":"http://127.0.0.1:1"}`, true},
		{"POST", "/v1/admin/replicas", `{"op":"leave","replica":"http://127.0.0.1:1"}`, true},
		{"POST", "/v1/admin/transfer", `{"dict":"alpha"}`, true},
		{"POST", "/v1/admin/transfer", `{"dict":"../x","to":"http://127.0.0.1:1"}`, true},
	}
}

// splitBatchIDs are the unknown dictionary ids of the split batch.
var splitBatchIDs = []string{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10", "g11"}

func TestRouterResponsesGolden(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	// Warm every dictionary on every replica first: cache residency
	// shows in /v1/dicts, and which replica a cold first request warms
	// depends on the bound ports and on hedge timing.
	for _, s := range tc.replicas {
		for _, id := range []string{"alpha", "beta"} {
			if _, err := s.cache.GetCtx(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	owners := make(map[string]bool)
	ring := tc.router.Ring()
	for _, id := range append([]string{"alpha", "beta"}, splitBatchIDs...) {
		owners[ring.Owner(id)] = true
	}
	if len(owners) != 2 {
		t.Fatalf("split batch lands on %d owner(s), want 2", len(owners))
	}

	// Replica URLs carry random ports; name each by its sorted index.
	urls := make([]string, len(tc.backends))
	for i, b := range tc.backends {
		urls[i] = b.URL
	}
	sort.Strings(urls)
	index := make(map[string]int, len(urls))
	for i, u := range urls {
		index[u] = i
	}
	// The replacer tries its pairs in order: longer URLs go first, so
	// a URL that prefixes another never matches inside it.
	byLen := append([]string(nil), urls...)
	sort.SliceStable(byLen, func(i, j int) bool { return len(byLen[i]) > len(byLen[j]) })
	var pairs []string
	for _, u := range byLen {
		pairs = append(pairs, u, fmt.Sprintf("replica-%d", index[u]))
	}
	names := strings.NewReplacer(pairs...)

	h := sha256.New()
	n := 0
	for _, base := range []string{tc.front.URL, tc.backends[0].URL} {
		direct := base != tc.front.URL
		for _, gr := range goldenRouterRequests(t) {
			if direct && gr.admin {
				continue
			}
			req, err := http.NewRequest(gr.method, base+gr.path, strings.NewReader(gr.body))
			if err != nil {
				t.Fatal(err)
			}
			if gr.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%v %s %s -> %d ct=%q ra=%q sha=%q %s\n", direct, gr.method, gr.path,
				resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"),
				resp.Header.Get(shaHeader), names.Replace(string(body)))
			n++
		}
	}
	if n != 38 {
		t.Fatalf("sent %d requests, want 38", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRouterSHA256 {
		t.Fatalf("router responses SHA-256 = %s, want %s", got, goldenRouterSHA256)
	}
}
