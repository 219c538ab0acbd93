package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

// toyShape is a traced serving run of about 300 requests.
var toyShape = loadShape{nominal: 400 * time.Millisecond, window: 20 * time.Millisecond, windows: 4, checkReqs: 20}

func loadTestBench(t *testing.T) *benchDef {
	t.Helper()
	b, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loadTestGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestToyWorkloads runs every workload kind at toy scale (the mini
// circuit with two cases, about 300 requests per serving run), traced,
// and checks that together they report every metric BENCHMARK.json
// declares and nothing else.
func TestToyWorkloads(t *testing.T) {
	bench := loadTestBench(t)
	gold := loadTestGolden(t)
	ctx := context.Background()
	reported := map[string]bool{}
	report := func(name string, m map[string]float64) {
		for k, v := range m {
			if !bench.declared(k) {
				t.Errorf("%s: undeclared metric %q", name, k)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", name, k, v)
			}
			reported[k] = true
		}
		for _, d := range bench.EndToEnd {
			if _, ok := m[d.Name]; !ok && !parentMetric(d.Name) {
				t.Errorf("%s: end-to-end metric %s missing", name, d.Name)
			}
		}
	}
	start := time.Now()
	for _, engine := range []string{"mc", "analytic"} {
		out, err := runTable(ctx, tableSpec{engine: engine, circuits: []circuitCases{{"mini", 2}}}, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) > 0 || out.failed > 0 || len(out.caseSecs) != 2 || out.digest == "" {
			t.Fatalf("toy table %s: problems %v, failed %d, %d cases, digest %q", engine, out.problems, out.failed, len(out.caseSecs), out.digest)
		}
		m := map[string]float64{}
		out.metrics(m)
		report("table/"+engine, m)
	}
	for _, routed := range []bool{false, true} {
		spec := serveSpec{routed: routed, nominalRPS: 500}
		out, err := runServe(ctx, spec, toyShape, 1, "testdata", gold.Dicts, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) > 0 {
			t.Fatalf("toy serve routed=%v: %v", routed, out.problems)
		}
		if sent, failed := counts(out.nominal); sent == 0 || failed > 0 {
			t.Fatalf("toy serve routed=%v: open loop sent %d, failed %d", routed, sent, failed)
		}
		for i, w := range out.loops {
			if w.sent == 0 || w.failed > 0 || w.traced != (i%2 == 0) {
				t.Fatalf("toy serve routed=%v: closed-loop window %d: %+v", routed, i, w)
			}
		}
		if len(out.setup) != 1+toyShape.windows {
			t.Fatalf("toy serve routed=%v: %d set-ups, want %d", routed, len(out.setup), 1+toyShape.windows)
		}
		m := map[string]float64{}
		out.metrics(m, true)
		report("serve", m)
	}
	for _, k := range []string{"host.ref_ms", "peak_rss_mb", "process.cpu_s", "process.cpu_util"} {
		reported[k] = true // added by runChild and the parent
	}
	for _, list := range [][]metricDef{bench.EndToEnd, bench.PerLayer} {
		for _, d := range list {
			if !reported[d.Name] {
				t.Errorf("no workload reports %s", d.Name)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("toy workloads took %v, want under 10s", d)
	}
}

// TestOpenLoopAccounting stalls one request for 50 ms while holding the
// server: the requests due during the stall must carry the wait in
// their latency, which a timer started at send time would miss.
func TestOpenLoopAccounting(t *testing.T) {
	const stall = 50 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()

	var plan []planned
	for i := 0; i < 100; i++ {
		p := planned{class: "single", path: "/ok", due: time.Duration(i) * time.Millisecond}
		if i == 10 {
			p.path = "/stall"
		}
		plan = append(plan, p)
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}}
	defer client.CloseIdleConnections()
	samples := openLoop(context.Background(), client, srv.URL, plan, nil)
	stallEnd := samples[10].done
	if stallEnd < 10*time.Millisecond+stall {
		t.Fatalf("stalled request finished at %v", stallEnd)
	}
	waited := false
	for i := 11; i < 100; i++ {
		s := samples[i]
		if !s.ok() {
			t.Fatalf("request %d: status %d", i, s.status)
		}
		if s.due >= stallEnd {
			continue
		}
		// The stalled answer and the first one behind it finish within
		// a scheduling quantum of each other on the client.
		if s.latency() < stallEnd-s.due-5*time.Millisecond {
			t.Errorf("request %d due %v: latency %v, but the server was stalled until %v", i, s.due, s.latency(), stallEnd)
		}
		if s.start-s.due > s.done-s.start {
			waited = true // it queued in the generator, not on the wire
		}
	}
	if !waited {
		t.Error("no request queued in the generator behind the stall")
	}
}

// TestStageTimesWithinWall checks what eval.self_s rests on: the
// stages eval times in CircuitResult.Timings run one after another
// inside a case, so their busy times add up to at most the case's wall
// time and eval.self_s is never negative.
func TestStageTimesWithinWall(t *testing.T) {
	out, err := runTable(context.Background(), tableSpec{engine: "mc", circuits: []circuitCases{{"mini", 3}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	out.metrics(m)
	busy := 0.0
	for _, name := range tableStages {
		busy += m[name+".busy_s"]
	}
	if wall := m["eval.wall_s"]; busy <= 0 || busy > wall {
		t.Errorf("stage busy times sum to %v s, case wall time is %v s", busy, wall)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the limits its
// consumers enforce and against this program's workload list.
func TestBenchmarkJSON(t *testing.T) {
	b := loadTestBench(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	maxBound, setupBound := 0.0, -1.0
	for _, d := range b.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s: unit %q, better %q", d.Unit, d.Better)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, d := range b.PerLayer {
		check(d.Name)
	}
	for _, list := range [][]metricDef{b.EndToEnd, b.PerLayer} {
		for _, d := range list {
			if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/ddd-e2e" {
		t.Errorf("paths %v", b.Paths)
	}
}

// TestFixtures checks the committed dictionaries against golden.json
// and that a wrong hash is caught.
func TestFixtures(t *testing.T) {
	g := loadTestGolden(t)
	if err := verifyFixtures("testdata", g.Dicts); err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{}
	for k, v := range g.Dicts {
		bad[k] = v
	}
	bad[fixtureIDs[0]] = "0"
	if err := verifyFixtures("testdata", bad); err == nil {
		t.Error("a wrong fixture hash passed")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestVerdict covers the -compare verdicts.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.2, 9.9}, []float64{10.1, 10, 10.3}, "agree"},
		{lower, []float64{10, 10.2, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{higher, []float64{10, 10.2, 9.9}, []float64{8, 8.1, 7.9}, "worse"},
		{higher, []float64{10, 10.2, 9.9}, []float64{12, 12.1, 11.9}, "better"},
		{lower, []float64{10, 14, 7}, []float64{10, 10, 10}, "unresolved"},
		{lower, []float64{10, 14, 12}, []float64{5, 5, 5}, "better"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
