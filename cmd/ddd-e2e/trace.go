package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the load generator's request id to the outermost
// handler, joining a request's client span and handler span. The
// router does not relay it, so replica spans behind a router carry no
// id and are aggregated rather than joined.
const reqHeader = "X-Bench-Req"

// span is one timed interval of a traced run. Times are nanoseconds
// since the tracer started; Parent is another span's ID or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op and wrap returns the
// handler unchanged. A traced run switches recording off for parts of
// the run (see enable) to measure what tracing costs.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	reqs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// enable switches recording on or off. While off, the tracer records
// nothing, hands out no request ids and its handler wrappers only pass
// the request through, so that part of the run costs what an untraced
// run does.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.t0))
}

// newReq returns a fresh request id for reqHeader, or 0 when not
// recording.
func (t *tracer) newReq() uint64 {
	if !t.recording() {
		return 0
	}
	return t.reqs.Add(1)
}

// record stores s and returns its ID, or -1 when not recording.
func (t *tracer) record(s span) int {
	if !t.recording() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// wrap returns h with a span per request named after the layer.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		begin := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		t.record(span{Name: layer, Path: r.URL.Path, Start: t.at(begin), End: t.at(end), Parent: -1, Req: req})
	})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON, first making each outermost
// handler span a child of the client span with the same request id.
func (t *tracer) writeFile(path, workloadName string) error {
	spans := t.snapshot()
	client := map[uint64]int{}
	for _, s := range spans {
		if s.Name == "client" {
			client[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if id, ok := client[s.Req]; ok && s.Name != "client" && s.Parent < 0 {
			spans[i].Parent = id
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workloadName, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
