package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// Binary persistence for compressed dictionaries. The paper's
// effect-cause workflow precomputes and *stores* the fault dictionary,
// then matches failing dies against it; this format is that store.
//
// Layout (little endian):
//
//	magic "DDD1" | u32 version | f64 clk
//	u32 rows | u32 cols | u32 nInputs
//	u32 nPatterns | patterns as packed bit pairs (V1 then V2, bytes)
//	u32 nSuspects | suspects as u32 arc IDs
//	per suspect: u32 count | count × (u32 idx | u8 q)
const (
	persistMagic   = "DDD1"
	persistVersion = 1

	// Decoding bounds. Dictionary files are loaded from disk by
	// long-running services (cmd/ddd-serve), so the decoder must treat
	// its input as untrusted: every count is bounded before it sizes an
	// allocation, and the sparse entries must arrive in the canonical
	// strictly-increasing order Save emits — patternConsistencyInto's
	// column-major walk silently miscomputes on any other order.
	maxDim   = 1 << 20 // rows, cols, inputs, suspects
	maxCells = 1 << 28 // rows × cols
)

// Save writes the dictionary in the binary dictionary format.
// nInputs is the circuit input count the patterns apply to (stored so
// loads can validate against the wrong circuit).
func (cd *CompressedDictionary) Save(w io.Writer, nInputs int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(v uint32) { _ = binary.Write(bw, le, v) }
	writeU32(persistVersion)
	_ = binary.Write(bw, le, math.Float64bits(cd.Clk))
	writeU32(uint32(cd.rows))
	writeU32(uint32(cd.cols))
	writeU32(uint32(nInputs))
	writeU32(uint32(len(cd.Patterns)))
	for _, p := range cd.Patterns {
		if len(p.V1) != nInputs || len(p.V2) != nInputs {
			return fmt.Errorf("core: pattern width %d does not match %d inputs", len(p.V1), nInputs)
		}
		writeBits(bw, p.V1)
		writeBits(bw, p.V2)
	}
	writeU32(uint32(len(cd.Suspects)))
	for _, a := range cd.Suspects {
		writeU32(uint32(a))
	}
	for _, es := range cd.entries {
		writeU32(uint32(len(es)))
		for _, e := range es {
			writeU32(uint32(e.idx))
			if err := bw.WriteByte(e.q); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeBits(bw *bufio.Writer, v logicsim.Vector) {
	var b byte
	for i, bit := range v {
		if bit {
			b |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			_ = bw.WriteByte(b)
			b = 0
		}
	}
	if len(v)%8 != 0 {
		_ = bw.WriteByte(b)
	}
}

// LoadCompressed reads a dictionary written by Save and the input
// count it was stored with.
func LoadCompressed(r io.Reader) (*CompressedDictionary, int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("core: reading dictionary magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, 0, fmt.Errorf("core: not a dictionary file (magic %q)", magic)
	}
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return v, err
	}
	ver, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	if ver != persistVersion {
		return nil, 0, fmt.Errorf("core: dictionary version %d not supported", ver)
	}
	var clkBits uint64
	if err := binary.Read(br, le, &clkBits); err != nil {
		return nil, 0, err
	}
	cd := &CompressedDictionary{Clk: math.Float64frombits(clkBits)}
	rows, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	cols, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	nIn, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	if rows > maxDim || cols > maxDim || nIn > maxDim {
		return nil, 0, fmt.Errorf("core: dictionary header out of range")
	}
	if uint64(rows)*uint64(cols) > maxCells {
		return nil, 0, fmt.Errorf("core: dictionary shape %d x %d out of range", rows, cols)
	}
	cd.rows, cd.cols = int(rows), int(cols)
	nPat, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	if nPat != cols {
		return nil, 0, fmt.Errorf("core: %d patterns for %d columns", nPat, cols)
	}
	for p := 0; p < int(nPat); p++ {
		v1, err := readBits(br, int(nIn))
		if err != nil {
			return nil, 0, err
		}
		v2, err := readBits(br, int(nIn))
		if err != nil {
			return nil, 0, err
		}
		cd.Patterns = append(cd.Patterns, logicsim.PatternPair{V1: v1, V2: v2})
	}
	nSus, err := readU32()
	if err != nil {
		return nil, 0, err
	}
	if nSus > maxDim {
		return nil, 0, fmt.Errorf("core: suspect count out of range")
	}
	for s := 0; s < int(nSus); s++ {
		a, err := readU32()
		if err != nil {
			return nil, 0, err
		}
		cd.Suspects = append(cd.Suspects, circuit.ArcID(a))
	}
	cd.entries = make([][]sparseEntry, nSus)
	maxIdx := uint32(cd.rows * cd.cols)
	for s := range cd.entries {
		count, err := readU32()
		if err != nil {
			return nil, 0, err
		}
		if count > maxIdx {
			return nil, 0, fmt.Errorf("core: suspect %d entry count %d out of range", s, count)
		}
		// Size the allocation from the claimed count only up to a
		// modest cap; a lying header then costs appends, not memory.
		es := make([]sparseEntry, 0, min(int(count), 1<<15))
		prev := int64(-1)
		for i := 0; i < int(count); i++ {
			idx, err := readU32()
			if err != nil {
				return nil, 0, err
			}
			if idx >= maxIdx {
				return nil, 0, fmt.Errorf("core: suspect %d entry index %d out of range", s, idx)
			}
			if int64(idx) <= prev {
				return nil, 0, fmt.Errorf("core: suspect %d entries not in canonical order at %d", s, idx)
			}
			prev = int64(idx)
			q, err := br.ReadByte()
			if err != nil {
				return nil, 0, err
			}
			if q == 0 {
				return nil, 0, fmt.Errorf("core: suspect %d stores a zero entry at %d", s, idx)
			}
			es = append(es, sparseEntry{idx: int32(idx), q: q})
		}
		cd.entries[s] = es
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("core: trailing data after dictionary")
	}
	return cd, int(nIn), nil
}

func readBits(br *bufio.Reader, n int) (logicsim.Vector, error) {
	v := make(logicsim.Vector, n)
	nBytes := (n + 7) / 8
	buf := make([]byte, nBytes)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	// writeBits zeroes the final byte's padding; reject anything else
	// so every accepted file has exactly one byte representation.
	if n%8 != 0 && buf[nBytes-1]>>uint(n%8) != 0 {
		return nil, fmt.Errorf("core: nonzero padding bits in pattern")
	}
	for i := 0; i < n; i++ {
		v[i] = buf[i/8]>>uint(i%8)&1 == 1
	}
	return v, nil
}
