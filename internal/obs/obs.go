// Package obs is the repository's stdlib-only observability layer:
// atomic counters, gauges and fixed-bucket histograms collected in a
// registry that renders Prometheus text exposition format
// deterministically (families sorted by name, series sorted by label
// string, no timestamps), so two scrapes with no traffic in between
// are byte-identical — the same reproducibility contract the rest of
// the repo holds for its numeric output.
//
// Hot paths pay one atomic add per event (float adds are a CAS loop
// on the value's bits); all aggregation and formatting happens at
// scrape time. Derived metrics whose source of truth already lives in
// another subsystem's atomics (cache hit counts, pool queue depth)
// register as CounterFunc/GaugeFunc closures and are read only when
// rendered, so instrumenting an existing counter costs nothing on the
// hot path.
//
// The process-wide Default() registry carries cross-cutting pipeline
// counters (timing sample counts, dictionary build totals); servers
// that need scrape isolation construct their own Registry and render
// both.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches constant key/value pairs to one series. Rendered
// sorted by key, so registration order never shows in the output.
type Labels map[string]string

// addFloat accumulates v into a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Counter is a monotonically increasing float64. Add with a negative
// value panics: counters only go up, which is what lets a scraper
// compute rates across restarts of its own state.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { addFloat(&c.bits, 1) }

// Add accumulates v (panics if v < 0).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter add of negative value %v", v))
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// LatencyBuckets is the default histogram layout for request
// latencies in seconds: 100 µs to 10 s, roughly logarithmic.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed upper-bound buckets
// (le = "less than or equal", Prometheus convention) plus a +Inf
// overflow, and tracks the observation sum. Buckets are fixed at
// construction; Observe is two atomic adds and a binary search.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric kinds, in TYPE-line spelling.
const (
	counterKind   = "counter"
	gaugeKind     = "gauge"
	histogramKind = "histogram"
)

// series is one labeled sample stream inside a family; render appends
// its exposition lines.
type series struct {
	labels string
	render func(sb *strings.Builder, name, labels string)
}

// family groups all series sharing a metric name.
type family struct {
	name, help, kind string
	series           map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is cheap and usually happens once at construction;
// collection reads atomics at scrape time.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by package-level
// pipeline counters (timing samples, dictionary builds).
func Default() *Registry { return defaultRegistry }

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels formats labels sorted by key: `{a="x",b="y"}`, or ""
// when empty.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(labels[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a sample value; integral values print without a
// fraction and +Inf prints in le-label spelling.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// register adds a series under name, creating the family on first
// use. Conflicting kinds or duplicate label sets are programmer
// errors and panic.
func (r *Registry) register(name, help, kind string, labels Labels, render func(sb *strings.Builder, name, labels string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	if _, dup := f.series[ls]; dup {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, ls))
	}
	f.series[ls] = &series{labels: ls, render: render}
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, counterKind, labels, func(sb *strings.Builder, name, ls string) {
		sampleLine(sb, name, ls, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for counters whose source of truth is an existing
// atomic elsewhere. fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, counterKind, labels, func(sb *strings.Builder, name, ls string) {
		sampleLine(sb, name, ls, fn())
	})
}

// GaugeFunc registers a gauge computed from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, gaugeKind, labels, func(sb *strings.Builder, name, ls string) {
		sampleLine(sb, name, ls, fn())
	})
}

// Histogram registers and returns a histogram series with the given
// upper bounds (nil = LatencyBuckets).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, histogramKind, labels, func(sb *strings.Builder, name, ls string) {
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			sampleLine(sb, name+"_bucket", withLE(ls, formatValue(bound)), float64(cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		sampleLine(sb, name+"_bucket", withLE(ls, "+Inf"), float64(cum))
		sampleLine(sb, name+"_sum", ls, h.Sum())
		sampleLine(sb, name+"_count", ls, float64(cum))
	})
	return h
}

// withLE appends the le label to an already-rendered label string.
func withLE(ls, le string) string {
	if ls == "" {
		return `{le="` + le + `"}`
	}
	return ls[:len(ls)-1] + `,le="` + le + `"}`
}

func sampleLine(sb *strings.Builder, name, labels string, v float64) {
	sb.WriteString(name)
	sb.WriteString(labels)
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
}

// WriteText renders every family in exposition format: families
// sorted by name, series sorted by label string, a HELP and TYPE line
// per family, no timestamps. The output is a pure function of the
// metric values, so idle scrapes are byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		f := r.fams[name]
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(f.help)
		sb.WriteString("\n# TYPE ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(f.kind)
		sb.WriteByte('\n')
		lss := make([]string, 0, len(f.series))
		for ls := range f.series {
			lss = append(lss, ls)
		}
		sort.Strings(lss)
		for _, ls := range lss {
			s := f.series[ls]
			s.render(&sb, f.name, s.labels)
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, sb.String())
	return err
}

// requestID feeds NextRequestID.
var requestID atomic.Uint64

// NextRequestID returns a process-unique monotonically increasing id
// for scoping per-request traces and stage timers. IDs restart at 1
// each process; they order work within a run, nothing more.
func NextRequestID() uint64 { return requestID.Add(1) }
