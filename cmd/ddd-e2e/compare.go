package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// noisyShare is how far a repeat's host.ref_ms may sit from its set's
// median before the repeat is flagged as run on a noisy host.
const noisyShare = 0.10

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Trace {
		return nil, fmt.Errorf("%s is a traced run; end-to-end numbers come from untraced runs", path)
	}
	return &f, nil
}

// compare prints each set's median and quartiles for every (workload,
// end-to-end metric) pair the two -out files share, and a verdict
// against the metric's bound from BENCHMARK.json. It reports whether
// every pair agrees.
func compare(w io.Writer, bench *benchDef, pathA, pathB string) (bool, error) {
	a, err := readOut(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOut(pathB)
	if err != nil {
		return false, err
	}
	flagNoisy(w, "A", a)
	flagNoisy(w, "B", b)
	fmt.Fprintf(w, "%-16s %-17s %-32s %-32s %5s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict")
	agree := true
	for _, wl := range workloads {
		for _, d := range bench.EndToEnd {
			xa, xb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(d, xa, xb)
			agree = agree && v == "agree"
			fmt.Fprintf(w, "%-16s %-17s %-32s %-32s %5.2f  %s\n", wl.name, d.Name, describe(xa), describe(xb), d.Bound, v)
		}
	}
	return agree, nil
}

func values(f *outFile, workloadName, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workloadName {
			xs = append(xs, r.Metrics[metric])
		}
	}
	return xs
}

func describe(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s]", formatValue(med), formatValue(q1), formatValue(q3))
}

// verdict compares set b against set a. "worse" and "better" mean the
// medians differ by more than the bound in that direction; "unresolved"
// means one set's spread (quartile distance over median) exceeds the
// bound, unless every run of b beats every run of a.
func verdict(d metricDef, a, b []float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0 // +1 when lower is better
	if d.Better == "higher" {
		sign = -1
	}
	// rel is how much worse x is than ref, as a share of ref.
	rel := func(x, ref float64) float64 {
		if ref == 0 {
			return 0
		}
		return sign * (x - ref) / math.Abs(ref)
	}
	if spread(q1a, ma, q3a) > d.Bound || spread(q1b, mb, q3b) > d.Bound {
		if allBeat(b, a, sign) {
			return "better"
		}
		return "unresolved"
	}
	switch r := rel(mb, ma); {
	case r > d.Bound:
		return "worse"
	case r < -d.Bound:
		return "better"
	}
	return "agree"
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// allBeat reports whether every value of b is better than every value
// of a.
func allBeat(b, a []float64, sign float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// flagNoisy names the repeats whose host reference time is more than
// noisyShare off the set's median.
func flagNoisy(w io.Writer, set string, f *outFile) {
	var refs []float64
	for _, r := range f.Runs {
		refs = append(refs, r.Metrics["host.ref_ms"])
	}
	med := median(refs)
	for _, r := range f.Runs {
		if x := r.Metrics["host.ref_ms"]; math.Abs(x-med) > noisyShare*med {
			fmt.Fprintf(w, "noisy: set %s %s repeat %d host.ref_ms %s (set median %s)\n", set, r.Workload, r.Repeat, formatValue(x), formatValue(med))
		}
	}
}
