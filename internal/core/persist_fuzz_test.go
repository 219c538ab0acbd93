package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// seedDictionaryBytes builds a small, fully valid serialized compressed
// dictionary without any circuit machinery: Compress and Save only
// consume the matrices, patterns, suspects and clk. With repeat, the
// second suspect repeats the first one's signature.
func seedDictionaryBytes(repeat bool) []byte {
	s0 := []float64{0.5, 0, 0, 0.25}
	s1 := []float64{0, 1.0, 0, 0}
	if repeat {
		s1 = s0
	}
	s2 := []float64{0, 0, 0, 0} // all-zero signature: no stored entries
	d := labeledDict([]circuit.ArcID{2, 7, 9}, 2, 2, s0, s1, s2)
	d.Patterns = []logicsim.PatternPair{
		{V1: logicsim.Vector{true, false, true}, V2: logicsim.Vector{false, true, true}},
		{V1: logicsim.Vector{false, false, true}, V2: logicsim.Vector{true, false, false}},
	}
	d.Clk = 1.25
	var buf bytes.Buffer
	if err := Compress(d).Save(&buf, 3); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLoadDictionary exercises the binary decoder against arbitrary
// bytes: the server (cmd/ddd-serve) loads dictionary files from disk,
// so decoding must fail with an error — never a panic or a runaway
// allocation — on truncated or corrupt input, and every input it does
// accept must be canonical (re-encoding reproduces the bytes exactly),
// split into signature classes of exactly equal entry lists, and ranked
// under every method as the per-suspect reference loop ranks it, in
// full and cut at one k.
func FuzzLoadDictionary(f *testing.F) {
	valid := seedDictionaryBytes(false)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0x7f))
	f.Add([]byte(nil))
	f.Add([]byte("DDD1"))
	f.Add([]byte("DDD1\x01\x00\x00\x00"))
	f.Add(seedDictionaryBytes(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		cd, nIn, err := LoadCompressed(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := cd.Save(&buf, nIn); err != nil {
			t.Fatalf("re-save of accepted dictionary failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted dictionary is not canonical: %d bytes in, %d bytes out", len(data), buf.Len())
		}
		checkClasses(t, &cd.sig, len(cd.Suspects))
		rows, cols := cd.Shape()
		if len(cd.Suspects) == 0 || rows*cols == 0 || rows*cols > 1<<16 {
			return
		}
		b := NewBehavior(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				b.Set(i, j, (i*cols+j)%3 == 0)
			}
		}
		k := len(data)%(len(cd.Suspects)+3) - 1
		for _, m := range allMethods {
			want := diagnoseCompressedScalar(cd, b, m)
			sameRanking(t, m.String(), cd.Diagnose(b, m, 0), want)
			sameRanking(t, fmt.Sprintf("%v k=%d", m, k), cd.Diagnose(b, m, k), prefix(want, k))
		}
	})
}
