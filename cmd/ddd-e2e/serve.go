package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/service"
)

const (
	// serviceWorkers sizes each replica's pool and batch fan-out for
	// the 2-core reference host.
	serviceWorkers = 2
	// clientConns is the load generator's connection count: open-loop
	// requests due while both are busy wait in the generator, and that
	// wait counts in their latency.
	clientConns = 2
	// nominalWindows splits the open-loop phase; loadgen.p50_ms and
	// loadgen.p99_ms are medians over its windows.
	nominalWindows = 8
	// maxLagP99 bounds the generator's own wake-up lag in the open-loop
	// phase; above it the generator, not the system, sets the latency,
	// and the run warns that its loadgen latencies are not valid. Waking
	// an idle vCPU of the reference host takes up to 2 ms at p99.
	maxLagP99 = 5 * time.Millisecond
	// failedLatency is the latency a failed request counts with: the
	// replicas' request deadline.
	failedLatency = 10 * time.Second
)

// The traffic is ddd-loadgen's default mix: 70 % of dictionary picks go
// to the first dictionary and the rest spread uniformly, and requests
// are 80 % single diagnoses, 15 % batches of 2-5 and 5 % malformed. It
// is a synthetic mix, not a measured deployment profile.
const (
	hotSkew        = 0.7
	batchShare     = 0.15
	malformedShare = 0.05
)

// serveSpec is a serving workload.
type serveSpec struct {
	routed bool
	// nominalRPS is the open-loop rate of a traced run.
	nominalRPS float64
}

// loadShape is the phase plan of one serving run.
//
// The gated numbers come from closed-loop windows: two clients send
// back to back for one window, then the benchmark times one more tier
// set-up, and so on to the end of the run. Each number is a median
// over the windows, so a stall of the shared reference host (10-25 ms
// every few seconds, and phases of seconds at half speed) moves a few
// windows, not the result.
//
// A traced run first spends 55 % of its time on an open-loop phase at
// the nominal rate, which gives the latency and every per-layer serving
// number, and switches recording off in every other closed-loop window
// to measure what tracing costs.
type loadShape struct {
	nominal   time.Duration // open-loop phase, traced runs only
	window    time.Duration // one closed-loop window
	windows   int           // closed-loop windows
	checkReqs int           // plan sample replayed by the output check
}

// shapeFor splits a run of the given length into half-second windows.
func shapeFor(seconds float64, traced bool) loadShape {
	s := time.Duration(seconds * float64(time.Second))
	sh := loadShape{window: 500 * time.Millisecond, checkReqs: 200}
	if traced {
		sh.nominal = s * 55 / 100
		s -= sh.nominal
	}
	sh.windows = max(2, int(s/sh.window))
	return sh
}

// dictShape is a dictionary's behavior-matrix shape.
type dictShape struct {
	Outputs  int `json:"outputs"`
	Patterns int `json:"patterns"`
}

// planned is one request of a plan, due at an offset from the phase
// start.
type planned struct {
	class string // "single", "batch" or "malformed"
	path  string
	body  []byte
	due   time.Duration
}

func wantStatus(class string) int {
	if class == "malformed" {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// malformedBodies is ddd-loadgen's malformed repertoire; all must
// answer 400: truncated JSON, an unknown field, a bad dictionary id,
// and a shape mismatch.
var malformedBodies = []string{
	`{"dict":`,
	`{"dict":"alpha","zzz":true,"behavior":["0"]}`,
	`{"dict":"../etc/passwd","behavior":["0"]}`,
	`{"dict":"%s","behavior":["010101"]}`,
}

// buildPlan lays out one phase: Poisson arrivals at rate per second
// until dur has passed and at least minReq requests are planned. The
// classes and bodies are drawn as ddd-loadgen draws them; the due times
// make the plan usable open loop. The plan is a pure function of
// (seed, phase, ids, shapes, rate, dur, minReq), and a shorter plan of
// the same phase is a prefix of a longer one.
func buildPlan(seed, phase uint64, ids []string, shapes map[string]dictShape, rate float64, dur time.Duration, minReq int) []planned {
	r := rng.New(rng.DeriveN(seed, 0xe2e, phase))
	pick := func() string {
		if len(ids) == 1 || r.Float64() < hotSkew {
			return ids[0]
		}
		return ids[1+r.IntN(len(ids)-1)]
	}
	var plan []planned
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * 1e9)
		if due >= dur && len(plan) >= minReq {
			return plan
		}
		u := r.Float64()
		switch {
		case u < malformedShare:
			body := malformedBodies[r.IntN(len(malformedBodies))]
			if strings.Contains(body, "%s") {
				body = fmt.Sprintf(body, pick())
			}
			plan = append(plan, planned{class: "malformed", path: "/v1/diagnose", body: []byte(body), due: due})
		case u < malformedShare+batchShare:
			items := make([]string, 2+r.IntN(4))
			for k := range items {
				id := pick()
				items[k] = singleBody(r, id, shapes[id])
			}
			body := `{"requests":[` + strings.Join(items, ",") + `]}`
			plan = append(plan, planned{class: "batch", path: "/v1/diagnose/batch", body: []byte(body), due: due})
		default:
			id := pick()
			plan = append(plan, planned{class: "single", path: "/v1/diagnose", body: []byte(singleBody(r, id, shapes[id])), due: due})
		}
	}
}

// singleBody is one diagnosis request: a random behavior matrix of the
// dictionary's exact shape and a K of 1 to 5.
func singleBody(r *rand.Rand, id string, sh dictShape) string {
	rows := make([]string, sh.Outputs)
	row := make([]byte, sh.Patterns)
	for i := range rows {
		for j := range row {
			row[j] = '0' + byte(r.Uint64()&1)
		}
		rows[i] = string(row)
	}
	body, _ := json.Marshal(struct {
		Dict     string   `json:"dict"`
		K        int      `json:"k"`
		Behavior []string `json:"behavior"`
	}{id, 1 + r.IntN(5), rows})
	return string(body)
}

// tier is the serving system under test, over loopback TCP: one
// replica, or a router in front of two, each handler on its own
// listener.
type tier struct {
	base     string       // URL of the front: the router, else the replica
	client   *http.Client // the load generator's client
	replicas []*replica
	router   *service.Router
	servers  []*http.Server
	wg       sync.WaitGroup
}

type replica struct {
	srv *service.Server
	url string
}

// replicaConfig is ddd-serve's default replica configuration with
// every fixture preloaded.
func replicaConfig(dir string) service.Config {
	return service.Config{
		Dir:            dir,
		CacheBytes:     256 << 20,
		CacheShards:    8,
		Workers:        serviceWorkers,
		QueueDepth:     64,
		BatchWorkers:   serviceWorkers,
		RequestTimeout: 10 * time.Second,
		LoadRetries:    2,
		Preload:        append([]string(nil), fixtureIDs...),
		Engine:         "analytic",
	}
}

// routerConfig is ddd-serve's default router configuration.
func routerConfig(replicas []string) service.RouterConfig {
	return service.RouterConfig{
		Replicas:         replicas,
		HedgeAfter:       30 * time.Millisecond,
		MaxHedges:        1,
		RequestTimeout:   10 * time.Second,
		HealthInterval:   2 * time.Second,
		HealthTimeout:    2 * time.Second,
		FailAfter:        3,
		RecoverAfter:     2,
		BreakerFailures:  3,
		BreakerCooldown:  2 * time.Second,
		BreakerSuccesses: 2,
		RebalanceWorkers: 2,
		RebalanceRetries: 3,
	}
}

// startTier builds and warms the tier, serves it over loopback TCP and
// waits until its front answers /readyz 200. Handlers are wrapped by tr.
func startTier(ctx context.Context, dir string, routed bool, tr *tracer) (_ *tier, err error) {
	t := &tier{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	n := 1
	if routed {
		n = 2
	}
	var urls []string
	for i := 0; i < n; i++ {
		srv, err := service.New(replicaConfig(dir))
		if err != nil {
			return nil, err
		}
		r := &replica{srv: srv}
		t.replicas = append(t.replicas, r)
		if err := srv.Warmup(ctx); err != nil {
			return nil, err
		}
		if r.url, err = t.listen(tr.wrap("replica", srv.Handler())); err != nil {
			return nil, err
		}
		urls = append(urls, r.url)
	}
	t.base = urls[0]
	if routed {
		if t.router, err = service.NewRouter(routerConfig(urls)); err != nil {
			return nil, err
		}
		if t.base, err = t.listen(tr.wrap("router", t.router.Handler())); err != nil {
			return nil, err
		}
	}
	if err := waitReady(ctx, t.client, t.base); err != nil {
		return nil, err
	}
	return t, nil
}

// listen serves h on a fresh loopback listener and returns its URL.
func (t *tier) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	t.servers = append(t.servers, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, the router's background work and every
// replica pool, and returns once their goroutines have ended. It closes
// connections outright: no request is in flight when the benchmark
// closes a tier, and http.Server.Shutdown would wait 5 s for any
// connection a client dialled but never used.
func (t *tier) close() {
	for _, hs := range t.servers {
		_ = hs.Close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, r := range t.replicas {
		_ = r.srv.Shutdown(context.Background())
	}
	t.wg.Wait()
	t.client.CloseIdleConnections()
}

func waitReady(ctx context.Context, client *http.Client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// post sends one request and reads the whole answer. A nonzero id is
// sent in reqHeader.
func post(ctx context.Context, client *http.Client, url string, body []byte, id uint64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func fetchShapes(ctx context.Context, client *http.Client, base string) (map[string]dictShape, error) {
	shapes := map[string]dictShape{}
	for _, id := range fixtureIDs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/dicts/"+id, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		var sh dictShape
		err = json.NewDecoder(resp.Body).Decode(&sh)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /v1/dicts/%s: status %d: %v", id, resp.StatusCode, err)
		}
		shapes[id] = sh
	}
	return shapes, nil
}

// checkOutputs replays plan one request at a time against every
// target. Each answer must carry the status its class expects, and the
// targets' answers must be byte-identical.
func checkOutputs(ctx context.Context, plan []planned, targets []target) []string {
	var problems []string
	for i, p := range plan {
		var first []byte
		for k, tg := range targets {
			st, body, err := post(ctx, tg.client, tg.base+p.path, p.body, 0)
			switch {
			case err != nil:
			case st != wantStatus(p.class):
				err = fmt.Errorf("status %d, want %d", st, wantStatus(p.class))
			case k > 0 && !bytes.Equal(body, first):
				err = fmt.Errorf("answer differs from %s's", targets[0].name)
			}
			if err != nil {
				problems = append(problems, fmt.Sprintf("check request %d (%s %s) to %s: %v", i, p.class, p.path, tg.name, err))
			}
			if k == 0 {
				first = body
			}
		}
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("... and %d more failed checks", len(problems)-5))
	}
	return problems
}

// target is one way to reach a tier.
type target struct {
	name   string
	client *http.Client
	base   string
}

// sample is one open-loop request's outcome, times as offsets from the
// phase start.
type sample struct {
	due, start, done time.Duration
	status           int  // -1 not sent, 0 transport error
	waited           bool // the sender was idle when the request fell due
	class            string
}

func (s sample) sent() bool { return s.status >= 0 }
func (s sample) ok() bool   { return s.status == wantStatus(s.class) }

// latency runs from the due time, so a stall delays the requests queued
// behind it by the full wait.
func (s sample) latency() time.Duration {
	if !s.ok() {
		return failedLatency
	}
	return s.done - s.due
}

// sleep waits d with nanosleep(2). On Linux, time.Sleep rounds a short
// wait up to the runtime poller's 1 ms granularity (a 200 µs sleep
// wakes 0.9 ms late at the median on the reference host), which would
// add most of a millisecond of generator lag to every request at the
// nominal rates; nanosleep wakes within the kernel's 50 µs timer slack.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends plan over clientConns connections: each request at its
// due time, or as soon as a connection frees up when both are busy.
func openLoop(ctx context.Context, client *http.Client, base string, plan []planned, tr *tracer) []sample {
	samples := make([]sample, len(plan))
	for i, p := range plan {
		samples[i] = sample{due: p.due, status: -1, class: p.class}
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				s := &samples[i]
				if wait := s.due - time.Since(start); wait > 0 {
					sleep(wait)
					s.waited = true
				}
				s.start = time.Since(start)
				id := tr.newReq()
				status, _, err := post(ctx, client, base+plan[i].path, plan[i].body, id)
				s.done = time.Since(start)
				if err != nil {
					status = 0
				}
				s.status = status
				tr.record(span{Name: "client", Path: plan[i].path, Start: tr.at(start.Add(s.start)), End: tr.at(start.Add(s.done)), Parent: -1, Req: id})
			}
		}()
	}
	wg.Wait()
	return samples
}

// loopWindow is one closed-loop window's outcome.
type loopWindow struct {
	rps        float64 // expected answers per second
	cpuMsPerOp float64 // process CPU time per request sent, client included
	sent       int
	failed     int
	traced     bool
}

// closedLoop sends plan's requests back to back, cycling through it,
// over clientConns connections until d has passed.
func closedLoop(ctx context.Context, client *http.Client, base string, plan []planned, d time.Duration, tr *tracer) loopWindow {
	var next, okN, sentN atomic.Int64
	cpu, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < d {
				p := plan[int(next.Add(1)-1)%len(plan)]
				id := tr.newReq()
				var begin time.Time
				if id != 0 {
					begin = time.Now()
				}
				status, _, err := post(ctx, client, base+p.path, p.body, id)
				if id != 0 {
					tr.record(span{Name: "client", Path: p.path, Start: tr.at(begin), End: tr.at(time.Now()), Parent: -1, Req: id})
				}
				sentN.Add(1)
				if err == nil && status == wantStatus(p.class) {
					okN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall, used := time.Since(start), cpuTime()-cpu
	sent, ok := int(sentN.Load()), int(okN.Load())
	w := loopWindow{rps: float64(ok) / wall.Seconds(), sent: sent, failed: sent - ok}
	if sent > 0 {
		w.cpuMsPerOp = 1e3 * used.Seconds() / float64(sent)
	}
	return w
}

// latencies returns the latencies of the sent requests in ms.
func latencies(ss []sample) *obs.Reservoir {
	r := obs.NewReservoir()
	for _, s := range ss {
		if s.sent() {
			r.Observe(float64(s.latency()) / 1e6)
		}
	}
	return r
}

func counts(ss []sample) (sent, failed int) {
	for _, s := range ss {
		if s.sent() {
			sent++
			if !s.ok() {
				failed++
			}
		}
	}
	return sent, failed
}

// lagP99 is the generator's own lateness: how long after the due time
// an idle sender actually sent.
func lagP99(ss []sample) time.Duration {
	r := obs.NewReservoir()
	for _, s := range ss {
		if s.waited {
			r.Observe(float64(s.start - s.due))
		}
	}
	return time.Duration(quantile(r, 0.99))
}

// windows splits ss into k consecutive windows of equal request count.
func windows(ss []sample, k int) [][]sample {
	out := make([][]sample, 0, k)
	for w := 0; w < k; w++ {
		if lo, hi := w*len(ss)/k, (w+1)*len(ss)/k; hi > lo {
			out = append(out, ss[lo:hi])
		}
	}
	return out
}

// serveOutcome is what one serving run measured.
type serveOutcome struct {
	routed   bool
	setup    []float64 // seconds per tier set-up
	problems []string
	loops    []loopWindow // the closed-loop windows

	// Traced run only: the open-loop phase (in tracer time), its spans,
	// /metrics deltas and the pool queue depth sampled every 100 ms.
	nominal    []sample
	from, to   int64
	spans      []span
	replicaCtr map[string]float64
	routerCtr  map[string]float64
	coreCtr    map[string]float64
	depth      []float64
}

// runServe measures a serving workload: it sets up the tier, checks its
// answers, runs the open-loop phase when traced, then alternates
// closed-loop windows with further timed set-ups of a second tier.
func runServe(ctx context.Context, spec serveSpec, shape loadShape, seed uint64, dir string, want map[string]string, tr *tracer) (*serveOutcome, error) {
	out := &serveOutcome{routed: spec.routed}
	setUp := func(tr *tracer) (*tier, error) {
		begin := time.Now()
		if err := verifyFixtures(dir, want); err != nil {
			return nil, err
		}
		t, err := startTier(ctx, dir, spec.routed, tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(begin).Seconds())
		return t, nil
	}
	t, err := setUp(tr)
	if err != nil {
		return nil, err
	}
	defer t.close()

	shapes, err := fetchShapes(ctx, t.client, t.base)
	if err != nil {
		return nil, err
	}
	ids := append([]string(nil), fixtureIDs...)
	targets := []target{{"the tier", t.client, t.base}, {"the tier again", t.client, t.base}}
	if spec.routed {
		targets[1] = target{"a replica directly", t.client, t.replicas[0].url}
	}
	tr.enable(false)
	out.problems = checkOutputs(ctx, buildPlan(seed, 0, ids, shapes, spec.nominalRPS, 0, shape.checkReqs), targets)
	tr.enable(true)

	if tr != nil {
		if err := out.openLoopPhase(ctx, t, buildPlan(seed, 0, ids, shapes, spec.nominalRPS, shape.nominal, 0), tr); err != nil {
			return nil, err
		}
	}

	// The closed loop cycles through its own plan; due times are ignored.
	loopPlan := buildPlan(seed, 1, ids, shapes, spec.nominalRPS, time.Second, 1)
	for w := 0; w < shape.windows; w++ {
		traced := tr != nil && w%2 == 0
		tr.enable(traced)
		var stopDepth func() []float64
		if traced {
			stopDepth = sampleDepth(t)
		}
		lw := closedLoop(ctx, t.client, t.base, loopPlan, shape.window, tr)
		if stopDepth != nil {
			stopDepth()
		}
		lw.traced = traced
		out.loops = append(out.loops, lw)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		extra, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	tr.enable(true)
	return out, nil
}

// openLoopPhase sends plan open loop and keeps its samples, spans,
// counter deltas and queue-depth samples.
func (out *serveOutcome) openLoopPhase(ctx context.Context, t *tier, plan []planned, tr *tracer) error {
	replica0, router0 := scrapeTier(t)
	core0, err := defaultCounters()
	if err != nil {
		return err
	}
	stopDepth := sampleDepth(t)
	out.from = tr.at(time.Now())
	out.nominal = openLoop(ctx, t.client, t.base, plan, tr)
	out.to = tr.at(time.Now())
	out.depth = stopDepth()
	replica1, router1 := scrapeTier(t)
	out.replicaCtr, out.routerCtr = deltas(replica0, replica1), deltas(router0, router1)
	core1, err := defaultCounters()
	if err != nil {
		return err
	}
	out.coreCtr = deltas(core0, core1)
	out.spans = tr.snapshot()
	return ctx.Err()
}

// scrapeTier reads /metrics of every replica (summed) and the router.
func scrapeTier(t *tier) (replicas, router map[string]float64) {
	replicas = map[string]float64{}
	for _, r := range t.replicas {
		for k, v := range scrape(r.srv.Handler()) {
			replicas[k] += v
		}
	}
	router = map[string]float64{}
	if t.router != nil {
		router = scrape(t.router.Handler())
	}
	return replicas, router
}

// sampleDepth samples the summed pool queue depth every 100 ms until
// the returned stop function is called; stop returns the samples.
func sampleDepth(t *tier) func() []float64 {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var xs []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				d := 0.0
				for _, r := range t.replicas {
					d += scrape(r.srv.Handler())["ddd_pool_queue_depth"]
				}
				xs = append(xs, d)
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return xs
	}
}

// metrics adds the serving end-to-end metrics to m, and with traced
// the per-layer metrics too. Throughput and CPU cost are medians over
// the untraced closed-loop windows; every other per-layer number covers
// the open-loop phase.
func (out *serveOutcome) metrics(m map[string]float64, traced bool) {
	m["setup_s"] = median(out.setup)
	var rates, cpus, tracedRates []float64
	loopSent := 0
	for _, w := range out.loops {
		loopSent += w.sent
		if w.traced {
			tracedRates = append(tracedRates, w.rps)
			continue
		}
		rates = append(rates, w.rps)
		cpus = append(cpus, w.cpuMsPerOp)
	}
	m["throughput_per_s"] = median(rates)
	m["cpu_ms_per_op"] = median(cpus)
	if !traced {
		return
	}
	if r := median(tracedRates); r > 0 {
		// Time per request traced over time per request untraced.
		m["trace.overhead_ratio"] = median(rates) / r
	}

	var p50s, p99s []float64
	for _, w := range windows(out.nominal, nominalWindows) {
		lat := latencies(w)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	m["loadgen.p50_ms"] = median(p50s)
	m["loadgen.p99_ms"] = median(p99s)
	m["loadgen.lag_p99_ms"] = float64(lagP99(out.nominal)) / 1e6
	sent, _ := counts(out.nominal)
	m["loadgen.sent"] = float64(sent + loopSent)

	repDiag, repBatch, rtr := obs.NewReservoir(), obs.NewReservoir(), obs.NewReservoir()
	repBusy, rtrBusy := 0.0, 0.0
	outer, client := map[uint64]float64{}, map[uint64]float64{}
	for _, s := range out.spans {
		if s.Start < out.from || s.Start >= out.to {
			continue
		}
		ms := s.seconds() * 1e3
		switch s.Name {
		case "client":
			client[s.Req] = s.seconds()
		case "router", "replica":
			if s.Req != 0 {
				outer[s.Req] = s.seconds()
			}
			switch {
			case s.Name == "router" && strings.HasPrefix(s.Path, "/v1/diagnose"):
				rtr.Observe(ms)
				rtrBusy += s.seconds()
			case s.Path == "/v1/diagnose":
				repDiag.Observe(ms)
				repBusy += s.seconds()
			case s.Path == "/v1/diagnose/batch":
				repBatch.Observe(ms)
				repBusy += s.seconds()
			}
		}
	}
	transport := 0.0
	for id, c := range client {
		if o, ok := outer[id]; ok {
			transport += c - o
		}
	}
	m["transport.self_s"] = transport
	m["replica.busy_s"] = repBusy
	m["replica.diagnose_p50_ms"] = quantile(repDiag, 0.5)
	m["replica.diagnose_p99_ms"] = quantile(repDiag, 0.99)
	m["replica.batch_p50_ms"] = quantile(repBatch, 0.5)
	m["replica.batch_p99_ms"] = quantile(repBatch, 0.99)
	if out.routed {
		m["router.busy_s"] = rtrBusy
		m["router.p50_ms"] = quantile(rtr, 0.5)
		m["router.p99_ms"] = quantile(rtr, 0.99)
		m["router.self_s"] = rtrBusy - repBusy
		m["router.forwards"] = out.routerCtr["ddd_router_forwards_total"]
		m["router.hedges"] = out.routerCtr["ddd_router_hedges_total"]
		m["router.failovers"] = out.routerCtr["ddd_router_failovers_total"]
		m["router.upstream_errors"] = out.routerCtr["ddd_router_upstream_errors_total"]
	}

	c := out.replicaCtr
	m["cache.hits"] = c["ddd_cache_hits_total"]
	m["cache.misses"] = c["ddd_cache_misses_total"]
	if lookups := c["ddd_cache_hits_total"] + c["ddd_cache_misses_total"]; lookups > 0 {
		m["cache.hit_ratio"] = c["ddd_cache_hits_total"] / lookups
	}
	m["pool.submitted"] = c["ddd_pool_submitted_total"]
	m["pool.rejected"] = c["ddd_pool_rejected_total"]
	depth := obs.NewReservoir()
	mean := 0.0
	for _, d := range out.depth {
		depth.Observe(d)
		mean += d / float64(len(out.depth))
	}
	m["pool.queue_depth_max"] = quantile(depth, 1)
	m["pool.queue_depth_mean"] = mean
	m["batch.batches"] = c["ddd_batch_batches_total"]
	m["batch.requests"] = c["ddd_batch_requests_total"]
	m["core.diagnoses"] = out.coreCtr["ddd_core_diagnoses_total"]
}

// runServeWorkload runs a serving workload and fills rec.
func runServeWorkload(ctx context.Context, spec serveSpec, shape loadShape, seed uint64, dir string, want map[string]string, tr *tracer, rec *runRecord) error {
	out, err := runServe(ctx, spec, shape, seed, dir, want, tr)
	if err != nil {
		return err
	}
	out.metrics(rec.Metrics, tr != nil)
	rec.Problems = append(rec.Problems, out.problems...)
	rec.Attempted, rec.Failed = counts(out.nominal)
	for _, w := range out.loops {
		rec.Attempted += w.sent
		rec.Failed += w.failed
	}
	if lag := lagP99(out.nominal); lag > maxLagP99 {
		fmt.Fprintf(os.Stderr, "ddd-e2e: %s: generator lag p99 %v exceeds %v; loadgen latencies of this run are not valid\n", rec.Workload, lag, maxLagP99)
	}
	if rec.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d requests failed", rec.Failed, rec.Attempted))
	}
	if rec.Attempted == 0 {
		return errors.New("no request was sent")
	}
	return nil
}
