// Command ddd-e2e is the end-to-end benchmark of the diagnosis pipeline
// and its serving tier. It runs four named workloads and reports the
// numbers a user of the system sees, plus a per-layer breakdown from a
// separate traced run:
//
//   - table1_mc: Table I cases (s1196, s1238) under the Monte-Carlo
//     engine, where the dictionary build dominates;
//   - table1_analytic: Table I cases (s1196, s1238, s1488) under the
//     closed-form engine, where pattern generation (ATPG) dominates;
//   - serve_single: traffic against one in-process replica (handler →
//     pool → score, same-dictionary batching, no router);
//   - serve_routed: the same traffic through the router in front of two
//     in-process replicas (forwarding, batch split and merge, health
//     and breaker machinery).
//
// Both serving workloads send ddd-loadgen's default synthetic mix over
// loopback TCP. Their gated numbers come from closed-loop windows; a
// traced run adds an open-loop phase at a fixed rate for latency and
// the per-layer breakdown.
//
// Every layer is timed from outside, around the public entry points
// (synth.GenerateNamed, eval.RunOnCircuitCtx, service.New/Warmup/
// Handler, service.NewRouter, obs.Default().WriteText); the program
// under test records nothing new.
//
// Usage (from this directory):
//
//	go run . -workload all -seed 1 -repeat 3 -out e2e.json
//	go run . -workload all -seed 1 -trace 1 -spans spans.json
//	go run . -compare set1.json set2.json
//	go run . -regen-dicts
//
// Each workload repeat runs in a child process (the command re-execs
// itself), so peak RSS and CPU time belong to one workload. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it print each metric
// as "workload metric value unit". With -trace 0 the metrics are the
// end-to-end metrics of ../../BENCHMARK.json, with -trace 1 its
// per-layer metrics. A failed output check (fixture SHA-256, Table I
// result digest, routed/direct byte identity, status contract) makes
// correct false and the exit status 1. Linux only: it reads child
// rusage and sleeps with nanosleep(2).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload run; the parent kills a child that
// outlives childTimeout plus a grace period.
const childTimeout = 150 * time.Second

// workload is one named input set of the benchmark. BENCHMARK.json lists
// the same names with the reason each exists.
type workload struct {
	name  string
	table *tableSpec
	serve *serveSpec
}

// workloads are sized for a 2-core host: each takes about 20 s there.
// The Table I case lists are frozen (see tableSpec); changing one
// changes its golden digest in testdata/golden.json.
var workloads = []workload{
	{name: "table1_mc", table: &tableSpec{engine: "mc", circuits: []circuitCases{
		{"s1196", 2}, {"s1238", 2},
	}}},
	{name: "table1_analytic", table: &tableSpec{engine: "analytic", circuits: []circuitCases{
		{"s1196", 4}, {"s1238", 4}, {"s1488", 8},
	}}},
	{name: "serve_single", serve: &serveSpec{nominalRPS: 2000}},
	{name: "serve_routed", serve: &serveSpec{routed: true, nominalRPS: 1000}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchDef is BENCHMARK.json: the single list of workloads, metric
// names, units, directions and regression bounds.
type benchDef struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadBenchmark(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchDef
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// metrics returns the end-to-end or the per-layer metric list.
func (b *benchDef) metrics(trace bool) []metricDef {
	if trace {
		return b.PerLayer
	}
	return b.EndToEnd
}

func (b *benchDef) declared(name string) bool {
	for _, list := range [][]metricDef{b.EndToEnd, b.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

// options are the per-run settings the parent hands each child.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	spans   string
	data    string
	bench   string
}

// runRecord is one workload run, as the child reports it and the parent
// completes it with the child's rusage.
type runRecord struct {
	Workload  string             `json:"workload"`
	Repeat    int                `json:"repeat"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// stat is a metric's median and quartiles over a set of repeats.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Seed    uint64                     `json:"seed"`
	Seconds int                        `json:"seconds"`
	Trace   bool                       `json:"trace"`
	NProc   int                        `json:"nproc"`
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

func main() {
	workloadFlag := flag.String("workload", "all", "workload name, comma-separated names, or all")
	seed := flag.Uint64("seed", 1, "seed of the serving request plans and Poisson arrivals")
	seconds := flag.Int("seconds", 0, "measured seconds of a serving run (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, each in its own process; reported values are medians")
	out := flag.String("out", "", "write every run and the per-workload medians and quartiles to this JSON file")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	compareA := flag.String("compare", "", "compare this -out file with the one given as argument and exit")
	regen := flag.Bool("regen-dicts", false, "rebuild the serving fixture dictionaries and print their SHA-256")
	data := flag.String("data", "testdata", "fixture directory")
	benchPath := flag.String("bench", "../../BENCHMARK.json", "benchmark definition")
	child := flag.Bool("child", false, "run one workload repeat in this process (the parent sets this)")
	flag.Parse()

	bench, err := loadBenchmark(*benchPath)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, data: *data, bench: *benchPath}
	if o.seconds <= 0 {
		o.seconds = bench.RunSeconds
	}
	switch {
	case *regen:
		err = regenDicts(*data)
	case *compareA != "":
		if flag.NArg() != 1 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		var agree bool
		agree, err = compare(os.Stdout, bench, *compareA, flag.Arg(0))
		if err == nil && !agree {
			os.Exit(1)
		}
	case *child:
		err = runChild(bench, *workloadFlag, o)
	default:
		var names []string
		if names, err = selectWorkloads(*workloadFlag); err == nil {
			var correct bool
			correct, err = orchestrate(bench, names, o, *repeat, *out)
			if err == nil && !correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddd-e2e:", err)
	os.Exit(2)
}

func selectWorkloads(spec string) ([]string, error) {
	if spec == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if _, ok := workloadByName(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// orchestrate runs every (workload, repeat) in a child process, prints
// the medians and the contract line, and writes the -out file. It
// reports whether every run passed its output checks.
func orchestrate(bench *benchDef, names []string, o options, repeat int, outPath string) (bool, error) {
	if repeat < 1 {
		return false, fmt.Errorf("-repeat must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	var runs []runRecord
	for _, name := range names {
		for r := 1; r <= repeat; r++ {
			co := o
			if o.spans != "" && len(names)*repeat > 1 {
				co.spans = suffixPath(o.spans, fmt.Sprintf(".%s.%d", name, r))
			}
			rec, err := spawn(exe, name, co)
			if err != nil {
				return false, fmt.Errorf("%s repeat %d: %w", name, r, err)
			}
			rec.Repeat = r
			runs = append(runs, rec)
		}
	}
	defs := bench.metrics(o.trace)
	summary := summarize(runs, defs)
	line := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, name := range names {
		for _, d := range defs {
			st := summary[name][d.Name]
			fmt.Printf("%s %s %s %s\n", name, d.Name, formatValue(st.Median), d.Unit)
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			line.Metrics[key] = valueUnit{Value: st.Median, Unit: d.Unit}
		}
	}
	for _, rec := range runs {
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		if !rec.Correct {
			line.Correct = false
			for _, p := range rec.Problems {
				fmt.Fprintf(os.Stderr, "ddd-e2e: %s repeat %d: %s\n", rec.Workload, rec.Repeat, p)
			}
		}
	}
	if outPath != "" {
		doc := outFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, NProc: runtime.NumCPU(), Runs: runs, Summary: summary}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return line.Correct, nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// formatValue prints a measured value to six significant digits; the
// JSON line carries every digit.
func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

func suffixPath(path, suffix string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + suffix + ext
}

// spawn runs one workload repeat in a child process and completes its
// record with the child's peak RSS and CPU time.
func spawn(exe, name string, o options) (runRecord, error) {
	args := []string{"-child", "-workload", name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-data", o.data, "-bench", o.bench}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	runErr := cmd.Run()
	wall := time.Since(start).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rec runRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		if runErr != nil {
			return rec, runErr
		}
		return rec, fmt.Errorf("child printed no result: %w", err)
	}
	if runErr != nil {
		return rec, runErr
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rec, errors.New("no rusage for child")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	rec.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rec.Metrics["process.cpu_s"] = cpu
	rec.Metrics["process.cpu_util"] = cpu / (wall * float64(runtime.NumCPU()))
	return rec, nil
}

// runChild runs one workload in this process and prints its record as
// the last line of standard output.
func runChild(bench *benchDef, name string, o options) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	gold, err := loadGolden(filepath.Join(o.data, goldenFile))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	rec := runRecord{Workload: name, Seed: o.seed, Trace: o.trace, Correct: true, Metrics: map[string]float64{}}
	rec.Metrics["host.ref_ms"] = hostRefMs()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if w.table != nil {
		err = runTableWorkload(ctx, *w.table, gold.Digests[name], tr, &rec)
	} else {
		err = runServeWorkload(ctx, *w.serve, shapeFor(float64(o.seconds), o.trace), o.seed, o.data, gold.Dicts, tr, &rec)
	}
	if err != nil {
		return err
	}
	rec.Correct = len(rec.Problems) == 0
	if tr != nil {
		if o.spans != "" {
			if err := tr.writeFile(o.spans, name); err != nil {
				return err
			}
		}
		// Layers a workload does not exercise report zero.
		for _, d := range bench.PerLayer {
			if _, ok := rec.Metrics[d.Name]; !ok && !parentMetric(d.Name) {
				rec.Metrics[d.Name] = 0
			}
		}
	}
	for k := range rec.Metrics {
		if !bench.declared(k) {
			return fmt.Errorf("workload %s computed undeclared metric %q", name, k)
		}
	}
	for _, d := range bench.metrics(o.trace) {
		if _, ok := rec.Metrics[d.Name]; !ok && !parentMetric(d.Name) {
			return fmt.Errorf("workload %s did not report metric %q", name, d.Name)
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// parentMetric names the metrics the parent adds from the child's
// rusage.
func parentMetric(name string) bool {
	return name == "peak_rss_mb" || name == "process.cpu_s" || name == "process.cpu_util"
}

// summarize folds the runs into per-workload medians and quartiles of
// the given metrics.
func summarize(runs []runRecord, defs []metricDef) map[string]map[string]stat {
	vals := map[string]map[string][]float64{}
	for _, rec := range runs {
		if vals[rec.Workload] == nil {
			vals[rec.Workload] = map[string][]float64{}
		}
		for _, d := range defs {
			vals[rec.Workload][d.Name] = append(vals[rec.Workload][d.Name], rec.Metrics[d.Name])
		}
	}
	out := map[string]map[string]stat{}
	for w, byMetric := range vals {
		out[w] = map[string]stat{}
		for _, d := range defs {
			q1, med, q3 := quartiles(byMetric[d.Name])
			out[w][d.Name] = stat{Median: med, Q1: q1, Q3: q3, Unit: d.Unit}
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the numbers match tools that use it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}
