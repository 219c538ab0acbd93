package timing

import (
	"context"
	"sync"

	"repro/internal/par"
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

// forBlocks is the block driver shared by the Monte-Carlo kernels. It
// splits instances 0..nSamples-1 of the stream rooted at seed into
// blocks of block lanes (block <= 0 selects DefaultBlock; the last
// block may be short), fans the blocks out across workers goroutines
// (see par.ForWorkerCtx) and calls fn once per block with the block's
// first instance s0, its width nb and worker w's Scratch, already
// holding the sampled delays of those nb lanes. Each worker's Scratch
// comes from the model's pool on first use and goes back when the run
// ends, so fn may keep state keyed by w (0 <= w < par.Workers(workers,
// nSamples)) without locking. The error is ctx.Err() when the run was
// cancelled.
func (m *Model) forBlocks(ctx context.Context, nSamples int, seed uint64, workers, block int, fn func(w int, sc *Scratch, s0, nb int)) error {
	if block <= 0 {
		block = DefaultBlock
	}
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	defer func() {
		for _, sc := range scratches {
			if sc != nil {
				m.releaseScratch(sc)
			}
		}
	}()
	_, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = m.acquireScratch(block)
			scratches[w] = sc
		}
		s0 := j * block
		nb := min(block, nSamples-s0)
		m.sampleBlock(sc, seed, s0, nb)
		fn(w, sc, s0, nb)
	})
	return err
}
