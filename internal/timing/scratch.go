package timing

import (
	"sync"

	"repro/internal/rng"
)

// DefaultBlock is the sample-block width of the Monte-Carlo kernels:
// how many circuit instances one topological traversal propagates at
// once. Eight float64 lanes fill one 64-byte cache line, so in the
// struct-of-arrays layout every arc-delay and arrival access touches
// exactly one line per block instead of one line per sample.
const DefaultBlock = 8

// Scratch is the reusable per-worker state of the blocked Monte-Carlo
// kernels: delay and arrival buffers for one block of instances plus a
// reseedable RNG stream. Acquiring a Scratch once per worker and
// reusing it across blocks makes the kernels' steady-state allocation
// count independent of the sample count.
//
// Layouts:
//
//	rows[b*nArcs+a]  per-lane sampling rows — lane b's instance is a
//	                 contiguous run, written in arc order by the RNG
//	delays[a*B+b]    struct-of-arrays arc delays, transposed from rows
//	arr[g*B+b]       struct-of-arrays gate arrival times
//
// Sampling writes rows sequentially (the RNG emits one instance at a
// time), then transposes into the SoA delays; propagation then streams
// whole blocks per arc/gate. A Scratch is not safe for concurrent use;
// give each worker its own.
type Scratch struct {
	block  int
	nArcs  int
	nGates int
	rows   []float64
	delays []float64
	arr    []float64
	stream *rng.Stream
}

// NewScratch returns a Scratch for m with the given block width
// (block <= 0 selects DefaultBlock).
func NewScratch(m *Model, block int) *Scratch {
	if block <= 0 {
		block = DefaultBlock
	}
	nArcs, nGates := len(m.Nominal), len(m.C.Gates)
	return &Scratch{
		block:  block,
		nArcs:  nArcs,
		nGates: nGates,
		rows:   make([]float64, block*nArcs),
		delays: make([]float64, nArcs*block),
		arr:    make([]float64, nGates*block),
		stream: rng.NewStream(),
	}
}

// acquireScratch hands out a Scratch for a kernel worker: from the
// model's pool when the default block width is wanted (so repeated
// Monte-Carlo calls reuse warm buffers), freshly allocated otherwise.
// Models built without NewModel have a nil pool and always allocate.
func (m *Model) acquireScratch(block int) *Scratch {
	if block <= 0 {
		block = DefaultBlock
	}
	if block == DefaultBlock && m.pool != nil {
		return m.pool.Get().(*Scratch)
	}
	return NewScratch(m, block)
}

// releaseScratch returns a Scratch obtained from acquireScratch.
// Non-default block widths are dropped rather than pooled.
func (m *Model) releaseScratch(sc *Scratch) {
	if sc == nil || sc.block != DefaultBlock || m.pool == nil {
		return
	}
	m.pool.Put(sc)
}

// newScratchPool builds the model's Scratch pool. The pool holds
// default-block scratches only; sync.Pool keeps them across calls and
// lets the GC reclaim them under memory pressure.
func newScratchPool(m *Model) *sync.Pool {
	return &sync.Pool{New: func() any { return NewScratch(m, DefaultBlock) }}
}
