package core

import (
	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// This file addresses the paper's future-work item 4 — "reduce the
// expense of computing and storing the probabilistic fault dictionary"
// — with a compressed form: the in-memory form's sparse signature
// entries quantized to 8 bits and scored by the same kernel. The
// accuracy cost of quantization is bounded by 1/510 per entry and is
// measured by the compression tests and bench.

// CompressedDictionary is a sparse, quantized probabilistic fault
// dictionary, diagnosable without decompression and serializable with
// Save/LoadCompressed. It carries its pattern set so a stored
// dictionary pins the stimuli it was characterized for. Each entry is
// s = q/255 for its quantized q.
type CompressedDictionary struct {
	// Suspects must not change after construction: the ranking walks
	// them in an arc order derived once.
	Suspects []circuit.ArcID
	Patterns []logicsim.PatternPair
	Clk      float64
	sig      sigClasses
}

// quantize maps p in [0,1] to 8 bits, rounding to nearest level. It
// maps every q/255 back to q, so a stored entry's s gives its q.
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
// the signature entries are retained — they are all the matching
// needs (Algorithm E.1 step 5 consumes S_crt alone). An entry that
// quantizes to 0 is dropped, and classes whose quantized entries
// coincide merge.
func Compress(d *Dictionary) *CompressedDictionary {
	cb := newClassBuilder(d.Rows, d.Cols, d.Suspects, len(d.sig.entries))
	es := make([]sigEntry, 0, len(d.M))
	for si, c := range d.sig.classOf {
		es = es[:0]
		for _, e := range d.sig.class(int(c)) {
			if q := quantize(e.s); q > 0 {
				es = append(es, sigEntry{i: e.i, j: e.j, s: float64(q) / 255})
			}
		}
		cb.sc.classOf[si] = cb.add(es)
	}
	return &CompressedDictionary{
		Suspects: append([]circuit.ArcID(nil), d.Suspects...),
		Patterns: append([]logicsim.PatternPair(nil), d.Patterns...),
		Clk:      d.Clk,
		sig:      cb.sc,
	}
}

// Classes returns the number of signature classes: distinct entry
// lists among the suspects, each scored once per diagnosis.
func (cd *CompressedDictionary) Classes() int { return cd.sig.classes() }

// Shape returns the signature-matrix shape (|O| outputs × |TP|
// patterns). Callers validating an observed behavior matrix against
// the dictionary check it here instead of relying on the panic inside
// the scoring kernel.
func (cd *CompressedDictionary) Shape() (rows, cols int) { return cd.sig.rows, cd.sig.cols }

// Bytes returns the approximate size of the compressed signatures
// stored per suspect (5 bytes per stored entry).
func (cd *CompressedDictionary) Bytes() int {
	n := 0
	for _, c := range cd.sig.classOf {
		n += len(cd.sig.class(int(c))) * 5
	}
	return n
}

// DenseBytes returns the size the same signatures occupy densely
// (8 bytes per cell), for compression-ratio reporting.
func (cd *CompressedDictionary) DenseBytes() int {
	return len(cd.Suspects) * cd.sig.rows * cd.sig.cols * 8
}

// Diagnose returns the k best suspects against b using the given
// method (all when k <= 0), like Dictionary.Diagnose but on the
// compressed form, scoring each signature class once.
func (cd *CompressedDictionary) Diagnose(b *Behavior, method Method, k int) []Ranked {
	return rank(cd.Suspects, &cd.sig, b, []scorer{{method.Score, method.lowerIsBetter()}}, k)
}
