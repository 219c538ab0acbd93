package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestQuantize(t *testing.T) {
	cases := []struct {
		p float64
		q uint8
	}{
		{0, 0}, {-0.5, 0}, {1, 255}, {2, 255}, {0.5, 128}, {1.0 / 255, 1},
	}
	for _, c := range cases {
		if got := quantize(c.p); got != c.q {
			t.Errorf("quantize(%v) = %d, want %d", c.p, got, c.q)
		}
	}
}

func TestCompressRoundTripConsistency(t *testing.T) {
	// Random dictionaries with realistic sparsity: zero out most
	// entries, then check φ from the compressed form matches the dense
	// form within quantization error.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nSus, nOut, nPat := 1+r.IntN(5), 1+r.IntN(5), 1+r.IntN(5)
		d, b := randomDict(seed, nSus, nOut, nPat)
		for _, s := range d.S {
			for k := range s.Data {
				if r.IntN(4) != 0 { // 75 % sparsity
					s.Data[k] = 0
				}
			}
		}
		// Compress needs M for the shape.
		d.M = NewMatrix(nOut, nPat)
		d.Clk = 12.5
		cd := Compress(d)
		if cd.Clk != 12.5 || len(cd.Suspects) != nSus {
			return false
		}
		for si := range d.Suspects {
			dense := d.PatternConsistency(si, b)
			sparse := sparsePhi(cd, si, b)
			for j := range dense {
				// Per-entry quantization error ≤ 1/510; over ≤ nOut
				// factors the product deviates by at most ~nOut/510
				// in the worst case for these small shapes.
				if math.Abs(dense[j]-sparse[j]) > 0.02*float64(nOut) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressedDiagnoseMatchesDense(t *testing.T) {
	// On a simulated dictionary (probabilities are multiples of
	// 1/samples, sparsity is real), the compressed ranking should put
	// the dense top candidate within its top three.
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:24]
	suspects = append(suspects, tb.site)
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	inst := tb.m.SampleInstance(r)
	b := SimulateBehavior(tb.c, inst.Delays, tb.pats, tb.site, 3*tb.inj.CellDelay, tb.clk)
	if !b.AnyFailure() {
		t.Skip("defect escaped")
	}
	cd := Compress(d)
	for _, m := range Methods {
		denseTop := d.Diagnose(b, m)[0].Arc
		sparse := cd.Diagnose(b, m)
		found := false
		for _, rk := range sparse[:3] {
			if rk.Arc == denseTop {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: dense top %d not in compressed top 3", m, denseTop)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := tb.inj.CandidateArcs()[:30]
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(48))
	if err != nil {
		t.Fatal(err)
	}
	cd := Compress(d)
	if cd.Bytes() >= cd.DenseBytes() {
		t.Errorf("compression did not shrink: %d vs %d", cd.Bytes(), cd.DenseBytes())
	}
	t.Logf("compressed %d -> %d bytes (%.1fx)", cd.DenseBytes(), cd.Bytes(),
		float64(cd.DenseBytes())/float64(cd.Bytes()+1))
}

func TestCompressedShapeMismatchPanics(t *testing.T) {
	d, _ := randomDict(1, 1, 2, 2)
	d.M = NewMatrix(2, 2)
	cd := Compress(d)
	defer func() {
		if recover() == nil {
			t.Errorf("shape mismatch not caught")
		}
	}()
	sparsePhi(cd, 0, NewBehavior(9, 9))
}

// sparsePhi computes φ for suspect si against b from the compressed
// form, through the kernel the compressed Diagnose runs.
func sparsePhi(cd *CompressedDictionary, si int, b *Behavior) []float64 {
	phi := make([]float64, cd.cols)
	failing := make([]int, cd.cols)
	countFailing(b, failing)
	cd.patternConsistencyInto(phi, failing, si, b)
	return phi
}
