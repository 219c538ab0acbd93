package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
)

// FuzzSparseDictionary builds small dictionaries from dense M and E
// blocks whose cells sit at, above and below M, with all-zero and
// repeated suspects, and checks the sparse form against the dense
// reference: the stored E expands back to the same bytes, the signature
// classes are well formed, every suspect's φ equals the dense loop's
// bit for bit, and so does every ranking under all seven methods, for
// the in-memory form and for the compressed form against its own
// decompressed signatures.
func FuzzSparseDictionary(f *testing.F) {
	f.Add([]byte{3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 100, 50, 25})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 4, 64, 0, 32, 128, 4, 9, 200, 17, 1, 5, 251, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		rows, cols, nSus := 1+next()%4, 1+next()%5, 1+next()%6
		n := rows * cols
		m := make([]float64, n)
		for k := range m {
			m[k] = float64(next()%65) / 64
		}
		e := make([]float64, nSus*n)
		for si := 0; si < nSus; si++ {
			row := e[si*n : (si+1)*n]
			switch mode := next(); {
			case mode%4 == 0 && si > 0: // a repeated suspect
				copy(row, e[(mode/4%si)*n:])
			case mode%4 == 1: // E = M everywhere: an all-zero signature
				copy(row, m)
			default:
				for k := range row {
					c := next()
					switch d := float64(c/3) / 85; c % 3 {
					case 0:
						row[k] = m[k]
					case 1:
						row[k] = min(m[k]+d, 1)
					default:
						row[k] = max(m[k]-d, 0)
					}
				}
			}
		}
		b := NewBehavior(rows, cols)
		for k := 0; k < n; k++ {
			b.Set(k/cols, k%cols, next()&1 == 1)
		}
		k := next()%(nSus+3) - 1
		suspects := make([]circuit.ArcID, nSus)
		for si := range suspects {
			suspects[si] = circuit.ArcID(100 - 7*si)
		}

		d := denseDict(suspects, rows, cols, m, e)
		for k, v := range denseE(d) {
			if math.Float64bits(v) != math.Float64bits(e[k]) {
				t.Fatalf("E cell %d expands to %v, want %v", k, v, e[k])
			}
		}
		checkClasses(t, &d.sig, nSus)
		for si := range suspects {
			got, want := d.PatternConsistency(si, b), densePhi(d, si, b)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("suspect %d: φ_%d = %v, dense loop %v", si, j, got[j], want[j])
				}
			}
		}
		all := d.DiagnoseMethods(b, allMethods)
		cd := Compress(d)
		checkClasses(t, &cd.sig, nSus)
		dense := decompress(cd)
		for r, meth := range allMethods {
			want, cwant := diagnoseDenseScalar(d, b, meth), diagnoseDenseScalar(dense, b, meth)
			sameRanking(t, meth.String(), all[r], want)
			sameRanking(t, meth.String()+" compressed", cd.Diagnose(b, meth, 0), cwant)
			sameRanking(t, fmt.Sprintf("%v k=%d", meth, k), d.Diagnose(b, meth, k), prefix(want, k))
			sameRanking(t, fmt.Sprintf("%v compressed k=%d", meth, k), cd.Diagnose(b, meth, k), prefix(cwant, k))
		}
	})
}
