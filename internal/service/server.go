// Package service implements ddd-serve: a long-running HTTP/JSON
// daemon that diagnoses observed failing behaviors against precomputed
// compressed fault dictionaries. It is the repo's first serving-scale
// subsystem: the expensive statistical artifact (the dictionary) is
// characterized once offline by ddd-dict, and the service answers
// match queries against it from memory — the same precompute-then-
// reuse move hierarchical SSTA makes with timing macromodels.
//
// Architecture:
//
//   - a sharded LRU cache (cache.go) keeps hot dictionaries resident
//     under a byte budget, with singleflight load deduplication;
//   - a bounded worker pool (pool.go) executes diagnoses with
//     backpressure — a full queue answers 429 instead of queueing
//     unboundedly;
//   - a batcher (batch.go) coalesces concurrent requests against the
//     same dictionary into one pool job, fanned out over internal/par
//     with index-disjoint result slots;
//   - handlers (handlers.go) expose /v1/diagnose, /v1/dicts,
//     /v1/dicts/{id} and the ops surface /healthz, /readyz, /stats.
//
// Responses are byte-deterministic for identical requests: diagnosis
// ranking ties break on ascending arc ID, JSON fields marshal in
// declaration order, and no response depends on time, scheduling or
// map iteration.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/timing/engine"
)

// Fault injection sites (internal/fault). Disarmed they cost one
// atomic load each; armed via ddd-serve -faults / DDD_FAULTS they
// exercise the failure paths the chaos suite asserts on:
//
//   - cache-load-error: the cache loader fails before touching disk
//     (param unused) — drives the singleflight error path and retries;
//   - cache-load-stall: the loader sleeps param milliseconds
//     (default 100) before loading — widens the singleflight window;
//   - dict-corrupt: the dictionary bytes are corrupted in flight, so
//     the strict decoder fails — a torn-read stand-in;
//   - worker-panic: a batch worker panics mid-diagnosis — drives the
//     pool's panic containment;
//   - slow-handler: the diagnose handlers sleep param milliseconds
//     (default 100) before enqueueing — drives deadline expiry.
var (
	faultCacheLoadError = fault.Register("cache-load-error")
	faultCacheLoadStall = fault.Register("cache-load-stall")
	faultDictCorrupt    = fault.Register("dict-corrupt")
	faultWorkerPanic    = fault.Register("worker-panic")
	faultSlowHandler    = fault.Register("slow-handler")
)

// errInjectedLoad marks a cache-load-error injection. It is not
// fs.ErrNotExist, so the cache treats it as transient and retries it
// like a real I/O blip.
var errInjectedLoad = errors.New("injected fault: cache-load-error")

// Config parameterizes a Server.
type Config struct {
	// Dir is the dictionary directory: id <-> <Dir>/<id>.dict.
	Dir string
	// CacheBytes bounds resident dictionary bytes (default 256 MiB).
	CacheBytes int64
	// CacheShards is the cache shard count (default 8).
	CacheShards int
	// Workers is the diagnosis worker count (default NumCPU).
	Workers int
	// QueueDepth bounds the worker queue; a full queue sheds load with
	// 429 (default 64).
	QueueDepth int
	// BatchWorkers bounds the par.For fan-out inside one batch
	// (default min(4, NumCPU)).
	BatchWorkers int
	// RequestTimeout is the per-request deadline (default 10s). It
	// covers queueing plus execution: when it expires the handler
	// answers 504 with code "deadline" and the worker skips the job the
	// moment it notices, freeing the slot for live requests.
	RequestTimeout time.Duration
	// LoadRetries is how many times a failing dictionary load is
	// retried (with capped exponential backoff) inside one cache get
	// before the error is returned. Not-found is never retried.
	// Default 0: retries are opt-in via ddd-serve -load-retries.
	LoadRetries int
	// Preload lists dictionary ids to load before the server reports
	// ready.
	Preload []string
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so the operator
	// opts in (ddd-serve -pprof).
	EnablePprof bool
	// Engine names the timing backend this deployment builds its
	// dictionaries with (engine.Names(); "" means the default). The
	// service itself diagnoses against precomputed dictionaries and
	// never runs timing, but operators correlate served results with
	// build provenance, so the name is validated at startup and
	// surfaced in /stats.
	Engine string
}

func (cfg *Config) applyDefaults() {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = min(4, runtime.NumCPU())
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Engine == "" {
		cfg.Engine = engine.DefaultName
	}
}

// Server is the diagnosis service: cache + pool + batcher + mux.
type Server struct {
	cfg       Config
	cache     *Cache
	pool      *Pool
	batch     *batcher
	mux       *http.ServeMux
	endpoints map[string]*epStats
	metrics   *serverMetrics
	ready     atomic.Bool
	// cancellations counts requests abandoned at their deadline or by
	// client disconnect — the handler answered 504 (or the worker
	// skipped the job) and the slot went back to live traffic. Feeds
	// ddd_cancellations_total.
	cancellations atomic.Int64

	front
}

// New builds a server over cfg.Dir. The directory must exist; the
// dictionaries inside it are loaded lazily (or via Warmup).
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if !engine.Known(cfg.Engine) {
		return nil, fmt.Errorf("service: unknown engine %q (have %v)", cfg.Engine, engine.Names())
	}
	fi, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("service: dictionary directory: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("service: %s is not a directory", cfg.Dir)
	}
	s := &Server{cfg: cfg}
	s.cache = NewCache(s.loadFromDisk, cfg.CacheBytes, cfg.CacheShards)
	s.cache.SetLoadRetries(cfg.LoadRetries)
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth)
	s.batch = newBatcher(s.pool, s.runBatch)
	s.endpoints = map[string]*epStats{
		"/v1/diagnose":            {},
		"/v1/diagnose/batch":      {},
		"/v1/dicts":               {},
		"/v1/dicts/{id}":          {},
		"/v1/dicts/{id}/snapshot": {},
		"/healthz":                {},
		"/readyz":                 {},
		"/stats":                  {},
	}
	s.metrics = newServerMetrics(s)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/diagnose", s.instrument("/v1/diagnose", s.handleDiagnose))
	mux.HandleFunc("POST /v1/diagnose/batch", s.instrument("/v1/diagnose/batch", s.handleDiagnoseBatch))
	mux.HandleFunc("GET /v1/dicts", s.instrument("/v1/dicts", s.handleDicts))
	mux.HandleFunc("GET /v1/dicts/{id}", s.instrument("/v1/dicts/{id}", s.handleDictInfo))
	mux.HandleFunc("GET /v1/dicts/{id}/snapshot", s.instrument("/v1/dicts/{id}/snapshot", s.handleSnapshotGet))
	mux.HandleFunc("PUT /v1/dicts/{id}/snapshot", s.instrument("/v1/dicts/{id}/snapshot", s.handleSnapshotPut))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	// /metrics is not instrumented: a scrape must not change the next
	// scrape's output (idle scrapes stay byte-identical).
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	if len(cfg.Preload) == 0 {
		s.ready.Store(true)
	}
	return s, nil
}

// loadFromDisk is the cache loader: decode <dir>/<id>.dict. The size
// accounts the sparse entries plus the pattern/suspect overhead so the
// cache budget tracks real residency.
func (s *Server) loadFromDisk(id string) (*Entry, error) {
	if faultCacheLoadStall.Hit() {
		time.Sleep(time.Duration(faultCacheLoadStall.Param(100)) * time.Millisecond)
	}
	if faultCacheLoadError.Hit() {
		return nil, fmt.Errorf("dictionary %q: %w", id, errInjectedLoad)
	}
	f, err := os.Open(filepath.Join(s.cfg.Dir, id+".dict"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Don't leak the server-side path in the 404 body.
			return nil, fmt.Errorf("dictionary %q not found: %w", id, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("dictionary %q: %w", id, err)
	}
	defer f.Close()
	var src io.Reader = f
	if faultDictCorrupt.Hit() {
		src = fault.NewCorruptingReader(f)
	}
	cd, nIn, err := core.LoadCompressed(src)
	if err != nil {
		return nil, fmt.Errorf("dictionary %q: %w", id, err)
	}
	size := int64(cd.Bytes()) +
		int64(len(cd.Patterns))*int64(2*nIn+32) + // two bool vectors + headers
		int64(len(cd.Suspects))*4 + 256
	return &Entry{ID: id, Dict: cd, NInputs: nIn, Size: size}, nil
}

// runBatch executes one same-dictionary batch on a pool worker: one
// cache lookup, then the batch fans out over par.For with each request
// writing only its own job (index-disjoint slots).
//
// Failure containment: a panic anywhere in the batch (including the
// worker-panic injection site) first fails-and-finishes every job that
// has not answered yet — no handler is ever left waiting on a dead
// batch — then re-panics so the pool worker's recover counts it. The
// cache load runs under a context that dies when every requester in
// the batch has given up, so an abandoned batch stops burning its
// worker slot on a load nobody will read.
func (s *Server) runBatch(id string, jobs []*diagJob) {
	defer func() {
		if r := recover(); r != nil {
			for _, j := range jobs {
				if !j.finished.Load() {
					j.fail(http.StatusInternalServerError, "internal worker failure")
					j.finish()
				}
			}
			panic(r)
		}
	}()
	ctx, cancel := batchContext(jobs)
	defer cancel()
	ent, err := s.cache.GetCtx(ctx, id)
	if err != nil {
		status, msg := loadErrStatus(err), err.Error()
		if ctx.Err() != nil {
			// Every requester is gone; the statuses are written only so
			// the jobs carry a consistent terminal state. The handlers
			// count the cancellations — each observed its own deadline.
			status, msg = http.StatusGatewayTimeout, "request deadline exceeded"
		}
		for _, j := range jobs {
			j.fail(status, msg)
			j.finish()
		}
		return
	}
	par.For(len(jobs), s.cfg.BatchWorkers, func(i int) {
		j := jobs[i]
		if j.ctx.Err() != nil {
			// The requester already timed out; skip the compute and
			// give the slot back to live traffic. The handler counted
			// the cancellation when it answered 504.
			j.fail(http.StatusGatewayTimeout, "request deadline exceeded")
		} else if faultWorkerPanic.Hit() {
			panic(fmt.Sprintf("injected fault: worker-panic (dict %s)", id))
		} else if resp, status, msg := diagnoseOne(ent, j.req); status != 0 {
			j.fail(status, msg)
		} else {
			j.resp = resp
		}
		j.finish()
	})
}

// batchContext returns a context that is cancelled once every job's
// request context is done — the batch-wide "anybody still listening?"
// signal guarding the shared cache load. The watcher goroutine drains
// as soon as all requesters cancel (every handler defers its cancel),
// so it cannot leak past the requests it watches.
func batchContext(jobs []*diagJob) (context.Context, context.CancelFunc) {
	if len(jobs) == 1 {
		return jobs[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, j := range jobs {
			<-j.ctx.Done()
		}
		cancel()
	}()
	return ctx, cancel
}

// Warmup loads every preload dictionary and marks the server ready.
// An error leaves the server unready (readyz stays 503).
func (s *Server) Warmup(ctx context.Context) error {
	for _, id := range s.cfg.Preload {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !validID(id) {
			return fmt.Errorf("service: invalid preload id %q", id)
		}
		if _, err := s.cache.GetCtx(ctx, id); err != nil {
			return fmt.Errorf("service: preload %q: %w", id, err)
		}
	}
	s.ready.Store(true)
	return nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Transport-level protections for the listener: a slow or stalled
// client must never hold a connection (and its handler goroutine)
// open indefinitely. Write/idle deadlines scale off the request
// timeout in front.start; these are the floors.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	minWriteTimeout   = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// front is the listener a Server and a Router share: one TCP listener
// served in the background by an http.Server that carries the full
// timeout set — header read, body read, response write, keep-alive
// idle — so a stalled client is a closed connection, not a leaked
// goroutine (slowloris protection).
type front struct {
	httpSrv *http.Server
	ln      net.Listener
}

// start listens on addr and serves h in the background.
func (f *front) start(addr string, h http.Handler, requestTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The write deadline must outlive the request deadline, or the
	// server would cut off a response the worker legitimately spent
	// RequestTimeout computing.
	writeTimeout := 2 * requestTimeout
	if writeTimeout < minWriteTimeout {
		writeTimeout = minWriteTimeout
	}
	f.ln = ln
	f.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = f.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address after Start.
func (f *front) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// shutdown stops the listener gracefully, waiting (bounded by ctx) for
// in-flight handlers; a front never started has nothing to stop.
func (f *front) shutdown(ctx context.Context) error {
	if f.httpSrv == nil {
		return nil
	}
	return f.httpSrv.Shutdown(ctx)
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the
// background; use Addr for the bound address and Shutdown to stop.
func (s *Server) Start(addr string) error {
	return s.start(addr, s.mux, s.cfg.RequestTimeout)
}

// Shutdown drains the server gracefully: stop accepting connections,
// wait for in-flight handlers (bounded by ctx), then drain the worker
// pool so every accepted request gets its response before the workers
// exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	err := s.shutdown(ctx)
	s.pool.Drain()
	return err
}
