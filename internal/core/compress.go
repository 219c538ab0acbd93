package core

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// This file addresses the paper's future-work item 4 — "reduce the
// expense of computing and storing the probabilistic fault dictionary"
// — with a compressed dictionary form: signature matrices are stored
// sparsely (most S_crt entries are exactly zero, because most
// (output, pattern) cells are unaffected by most candidate defects)
// and quantized to 8 bits. Diagnosis runs directly on the compressed
// form; the accuracy cost of quantization is bounded by 1/510 per
// entry and is measured by the compression tests and bench.

// sparseEntry is one nonzero signature probability, stored
// column-major (pattern-major) so per-pattern products stream through
// memory.
type sparseEntry struct {
	idx int32 // j*rows + i
	q   uint8 // quantized probability, value = q/255
}

// CompressedDictionary is a sparse, quantized probabilistic fault
// dictionary, diagnosable without decompression and serializable with
// Save/LoadCompressed. It carries its pattern set so a stored
// dictionary pins the stimuli it was characterized for.
type CompressedDictionary struct {
	Suspects []circuit.ArcID
	Patterns []logicsim.PatternPair
	Clk      float64
	rows     int // |O|
	cols     int // |TP|
	entries  [][]sparseEntry
}

// quantize maps p in [0,1] to 8 bits, rounding to nearest level.
func quantize(p float64) uint8 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 255
	}
	return uint8(p*255 + 0.5)
}

// Compress converts a dictionary to the sparse quantized form. Only
// the signature matrices are retained — they are all the matching
// needs (Algorithm E.1 step 5 consumes S_crt alone).
func Compress(d *Dictionary) *CompressedDictionary {
	cd := &CompressedDictionary{
		Suspects: append([]circuit.ArcID(nil), d.Suspects...),
		Patterns: append([]logicsim.PatternPair(nil), d.Patterns...),
		Clk:      d.Clk,
		rows:     d.M.Rows,
		cols:     d.M.Cols,
		entries:  make([][]sparseEntry, len(d.S)),
	}
	for si, s := range d.S {
		var es []sparseEntry
		for j := 0; j < s.Cols; j++ {
			for i := 0; i < s.Rows; i++ {
				if q := quantize(s.At(i, j)); q > 0 {
					es = append(es, sparseEntry{idx: int32(j*s.Rows + i), q: q})
				}
			}
		}
		cd.entries[si] = es
	}
	return cd
}

// Shape returns the signature-matrix shape (|O| outputs × |TP|
// patterns). Callers validating an observed behavior matrix against
// the dictionary check it here instead of relying on the panic inside
// the scoring kernels.
func (cd *CompressedDictionary) Shape() (rows, cols int) { return cd.rows, cd.cols }

// Bytes returns the approximate in-memory size of the compressed
// signatures (5 bytes per stored entry).
func (cd *CompressedDictionary) Bytes() int {
	n := 0
	for _, es := range cd.entries {
		n += len(es) * 5
	}
	return n
}

// DenseBytes returns the size the same signatures occupy densely
// (8 bytes per cell), for compression-ratio reporting.
func (cd *CompressedDictionary) DenseBytes() int {
	return len(cd.entries) * cd.rows * cd.cols * 8
}

// countFailing tallies the failing outputs of each pattern (column) of
// b into failing. The counts depend only on b, so Diagnose computes
// them once and shares them across all suspects. It runs on the
// bit-packed word view: one popcount-style scan over Rows*⌈Cols/64⌉
// words instead of Rows*Cols cell probes, touching only set bits.
func countFailing(b *Behavior, failing []int) {
	for j := range failing {
		failing[j] = 0
	}
	words := b.WordsPerRow()
	for i := 0; i < b.Rows; i++ {
		for w := 0; w < words; w++ {
			v := b.Word(i, w)
			for v != 0 {
				failing[w*64+bits.TrailingZeros64(v)]++
				v &= v - 1
			}
		}
	}
}

// patternConsistencyInto computes φ for suspect si against b from the
// sparse form: φ_j = Π_{failing i} s_ij · Π_{passing i} (1−s_ij), with
// absent entries contributing s = 0 (hence φ_j = 0 whenever a failing
// output has no stored signature probability). It writes into
// caller-owned phi, given precomputed per-pattern failing counts — the
// kernel behind the compressed Diagnose, which reuses one phi buffer
// and one failing count across every suspect (the per-request hot loop
// of ddd-serve).
//
//ddd:hot
func (cd *CompressedDictionary) patternConsistencyInto(phi []float64, failing []int, si int, b *Behavior) {
	if b.Rows != cd.rows || b.Cols != cd.cols {
		panic("core: behavior shape does not match compressed dictionary")
	}
	// Start from the all-absent baseline: φ_j = 0 if pattern j has any
	// failing output, else 1.
	for j, n := range failing {
		if n == 0 {
			phi[j] = 1
		} else {
			phi[j] = 0
		}
	}
	// Walk the sparse entries pattern by pattern.
	es := cd.entries[si]
	for start := 0; start < len(es); {
		j := int(es[start].idx) / cd.rows
		end := start
		for end < len(es) && int(es[end].idx)/cd.rows == j {
			end++
		}
		p := 1.0
		covered := 0
		for _, e := range es[start:end] {
			i := int(e.idx) % cd.rows
			s := float64(e.q) / 255
			if b.At(i, j) {
				p *= s
				covered++
			} else {
				p *= 1 - s
			}
		}
		if covered < failing[j] {
			p = 0 // some failing output has s = 0
		}
		phi[j] = p
		start = end
	}
}

// Diagnose ranks all suspects against b using the given method, like
// Dictionary.Diagnose but on the compressed form.
func (cd *CompressedDictionary) Diagnose(b *Behavior, method Method) []Ranked {
	// The failing counts depend only on b: compute them once.
	failing := make([]int, cd.cols)
	countFailing(b, failing)
	return rank(cd.Suspects, cd.cols, func(phi []float64, si int) { cd.patternConsistencyInto(phi, failing, si, b) }, method.Score, method.lowerIsBetter())
}
