package defect

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
)

func TestMultiDefectOps(t *testing.T) {
	md := MultiDefect{{Arc: 3, Size: 1.5}, {Arc: 9, Size: 2.25}}
	if !md.Contains(3) || !md.Contains(9) || md.Contains(4) {
		t.Errorf("Contains wrong")
	}
	if md.String() == "" {
		t.Errorf("empty String")
	}
	delays := make([]float64, 12)
	for i := range delays {
		delays[i] = 1
	}
	out := md.ApplyTo(delays)
	if out[3] != 2.5 || out[9] != 3.25 || out[0] != 1 {
		t.Errorf("ApplyTo = %v", out)
	}
	if delays[3] != 1 {
		t.Errorf("ApplyTo mutated input")
	}
}

func TestSampleMultiInPackage(t *testing.T) {
	_, in := setup(t)
	r := rng.New(8)
	md := in.SampleMulti(4, r)
	if len(md) != 4 {
		t.Fatalf("sampled %d", len(md))
	}
	seen := map[circuit.ArcID]bool{}
	for _, d := range md {
		if seen[d.Arc] {
			t.Errorf("duplicate arc %d", d.Arc)
		}
		seen[d.Arc] = true
		if d.Size <= 0 {
			t.Errorf("size %v", d.Size)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("oversized multi accepted")
		}
	}()
	in.SampleMulti(1<<20, r)
}

func TestSizeDistDirect(t *testing.T) {
	_, in := setup(t)
	d := in.SizeDist(2.0)
	if d.Mean() != 2.0 {
		t.Errorf("SizeDist mean = %v", d.Mean())
	}
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		if v := d.Sample(r); v < 0 {
			t.Fatalf("negative size sample")
		}
	}
}
