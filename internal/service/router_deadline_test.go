package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRouterFanOutsHaveDeadline: a replica that accepts the connection
// but never answers must not hold the router's /readyz or /v1/dicts
// handler past RequestTimeout. The client timeout makes a missing
// bound fail the test instead of hanging it.
func TestRouterFanOutsHaveDeadline(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stalled.Close()
	defer close(release)

	rt, err := NewRouter(RouterConfig{Replicas: []string{stalled.URL}, RequestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := &http.Client{Timeout: 3 * time.Second}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/readyz", http.StatusServiceUnavailable},
		{"/v1/dicts", http.StatusBadGateway},
	} {
		start := time.Now()
		resp, err := client.Get(front.URL + tc.path)
		if err != nil {
			t.Errorf("%s: %v", tc.path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s answered after %v, want about RequestTimeout (200ms)", tc.path, d)
		}
	}
}
