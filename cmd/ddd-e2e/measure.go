package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile is r's q-quantile by obs.Reservoir's nearest-rank method,
// the percentile definition ddd-loadgen reports too. No values give 0,
// so a layer a run did not exercise reports zero.
func quantile(r *obs.Reservoir, q float64) float64 {
	if r.Count() == 0 {
		return 0
	}
	return r.Quantile(q)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	if math.IsNaN(med) {
		return 0
	}
	return med
}

// hostRefMs times a fixed stdlib-only workload (SHA-256 over 32 MiB)
// three times and returns the median in milliseconds. It does not touch
// the code under test, so a change in it is host noise, not a code
// change.
func hostRefMs() float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var ts []float64
	var sink byte
	for k := 0; k < 3; k++ {
		begin := time.Now()
		for j := 0; j < 4; j++ {
			sum := sha256.Sum256(buf)
			sink ^= sum[0]
		}
		ts = append(ts, float64(time.Since(begin).Microseconds())/1e3)
	}
	buf[0] = sink
	return median(ts)
}

// cpuTime is the CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseMetrics reads Prometheus text exposition into per-family totals:
// every series of a family is summed, labels are dropped.
func parseMetrics(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// defaultCounters reads the process-wide pipeline registry.
func defaultCounters() (map[string]float64, error) {
	var b bytes.Buffer
	if err := obs.Default().WriteText(&b); err != nil {
		return nil, err
	}
	return parseMetrics(b.Bytes()), nil
}

// scrape reads h's GET /metrics without a network round trip.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.Bytes())
}

// deltas returns after minus before for every family in after.
func deltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
