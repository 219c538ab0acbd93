package obs

import (
	"math"
	"sort"
	"sync"
)

// Reservoir collects every observed value and answers exact quantiles
// over them. Unlike Histogram (fixed buckets, constant memory, scrape
// friendly) it keeps the raw samples, so percentiles are exact rather
// than bucket-interpolated — the right trade for bounded-run tooling
// like the load generator's SLO gate, where the sample count is the
// request count and an approximate p99 could pass a gate the real
// p99 fails. Not for long-running servers: memory grows with the
// observation count.
type Reservoir struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// NewReservoir returns an empty reservoir.
func NewReservoir() *Reservoir {
	return &Reservoir{}
}

// Observe records one value.
func (r *Reservoir) Observe(v float64) {
	r.mu.Lock()
	r.samples = append(r.samples, v)
	r.sorted = false
	r.mu.Unlock()
}

// Count returns the number of observations.
func (r *Reservoir) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Quantile returns the exact q-quantile (0 <= q <= 1) by the
// nearest-rank method: the smallest observed value with at least
// ceil(q*n) observations at or below it. q=0 is the minimum, q=1 the
// maximum. An empty reservoir returns NaN.
func (r *Reservoir) Quantile(q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.samples)
	if n == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return r.samples[rank-1]
}
