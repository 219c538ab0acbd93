package timing

import (
	"context"

	"repro/internal/par"
	"repro/internal/rng"
)

// block is the sample-block width of the Monte-Carlo kernels: how
// many circuit instances one topological traversal propagates at once.
// Eight float64 lanes fill one 64-byte cache line, so in the
// struct-of-arrays layout every arc-delay and arrival access touches
// exactly one line per block instead of one line per sample.
const block = 8

// Scratch is the per-worker state of the blocked Monte-Carlo kernels:
// delay and arrival buffers for one block of instances plus a
// reseedable RNG stream. Each worker of a call allocates one Scratch
// and reuses it across its blocks, so a kernel's allocation count is
// independent of the sample count; nothing outlives the call.
//
// Layouts:
//
//	rows[b*nArcs+a]    per-lane sampling rows — lane b's instance is a
//	                   contiguous run, written in arc order by the RNG
//	delays[a*block+b]  struct-of-arrays arc delays, transposed from rows
//	arr[g*block+b]     struct-of-arrays gate arrival times
//
// Sampling writes rows sequentially (the RNG emits one instance at a
// time), then transposes into the SoA delays; propagation then streams
// whole blocks per arc/gate. A Scratch is not safe for concurrent use;
// give each worker its own.
type Scratch struct {
	nArcs  int
	rows   []float64
	delays []float64
	arr    []float64
	stream *rng.Stream
}

// newScratch returns a Scratch for m.
func newScratch(m *Model) *Scratch {
	nArcs := len(m.Nominal)
	return &Scratch{
		nArcs:  nArcs,
		rows:   make([]float64, block*nArcs),
		delays: make([]float64, nArcs*block),
		arr:    make([]float64, len(m.C.Gates)*block),
		stream: rng.NewStream(),
	}
}

// forBlocks is the block driver shared by the Monte-Carlo kernels. It
// splits instances 0..nSamples-1 of the stream rooted at seed into
// blocks of block lanes (the last block may be short), fans the blocks
// out across workers goroutines (see par.ForWorkerCtx) and calls fn
// once per block with the block's first instance s0, its width nb and
// the calling worker's Scratch, already holding the sampled delays of
// those nb lanes. fn runs concurrently on distinct blocks, so whatever
// it writes beyond the Scratch must be per-block slots or atomic adds.
// The error is ctx.Err() when the run was cancelled.
func (m *Model) forBlocks(ctx context.Context, nSamples int, seed uint64, workers int, fn func(sc *Scratch, s0, nb int)) error {
	nBlocks := (nSamples + block - 1) / block
	scratches := make([]*Scratch, par.Workers(workers, nBlocks))
	_, err := par.ForWorkerCtx(ctx, nBlocks, workers, func(w, j int) {
		sc := scratches[w]
		if sc == nil {
			sc = newScratch(m)
			scratches[w] = sc
		}
		s0 := j * block
		nb := min(block, nSamples-s0)
		m.sampleBlock(sc, seed, s0, nb)
		fn(sc, s0, nb)
	})
	return err
}
