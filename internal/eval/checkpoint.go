package eval

// Crash-safe checkpointing for long experiment runs. A journal is one
// JSON-lines file: a header line fingerprinting everything that
// determines per-case results, then one line per completed case.
// Every Record rewrites the journal through a temp file in the same
// directory, fsyncs, and renames it into place, so a SIGKILL at any
// instant leaves either the previous journal or the new one — never a
// torn file. Resume is bit-exact because every per-case random stream
// derives from (cfg.Seed, case index) alone (see Pipeline.NewCase): replaying
// case i fresh or loading it from the journal yields the same
// CaseResult, so a killed-and-resumed run produces a byte-identical
// final table.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/obs"
	"repro/internal/timing"
)

var checkpointCases = obs.Default().Counter("ddd_checkpoint_cases_total",
	"Cases recorded to an eval checkpoint journal.", nil)

// journalVersion guards the on-disk layout; bump it when caseJSON
// changes incompatibly so a stale journal is detected, not misread.
const journalVersion = 1

// journalHeader is the journal's first line.
type journalHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// journalLine is every subsequent line: one completed case.
type journalLine struct {
	Case   int      `json:"case"`
	Result caseJSON `json:"result"`
}

// caseJSON is CaseResult's stable serialized form. Ranks are keyed by
// Method.String() — readable in the journal and independent of the
// Method enum's numeric values. Floats round-trip bit-exactly:
// encoding/json emits the shortest representation that parses back to
// the same float64.
type caseJSON struct {
	Instance        int            `json:"instance"`
	DefectArc       int            `json:"defect_arc"`
	DefectSize      float64        `json:"defect_size"`
	Clk             float64        `json:"clk"`
	Patterns        int            `json:"patterns"`
	Escaped         bool           `json:"escaped,omitempty"`
	Suspects        int            `json:"suspects"`
	TruthInSuspects bool           `json:"truth_in_suspects,omitempty"`
	Rank            map[string]int `json:"rank,omitempty"`
	AutoK           int            `json:"auto_k,omitempty"`
	AutoKGap        float64        `json:"auto_k_gap,omitempty"`
}

func toCaseJSON(cs CaseResult) caseJSON {
	out := caseJSON{
		Instance:        cs.Instance,
		DefectArc:       int(cs.Defect.Arc),
		DefectSize:      cs.Defect.Size,
		Clk:             cs.Clk,
		Patterns:        cs.Patterns,
		Escaped:         cs.Escaped,
		Suspects:        cs.Suspects,
		TruthInSuspects: cs.TruthInSuspects,
		AutoK:           cs.AutoK,
		AutoKGap:        cs.AutoKGap,
	}
	if len(cs.Rank) > 0 {
		out.Rank = make(map[string]int, len(cs.Rank))
		for m, pos := range cs.Rank {
			out.Rank[m.String()] = pos
		}
	}
	return out
}

func (cj caseJSON) toCaseResult() (CaseResult, error) {
	cs := CaseResult{
		Instance:        cj.Instance,
		Defect:          defect.Defect{Arc: circuit.ArcID(cj.DefectArc), Size: cj.DefectSize},
		Clk:             cj.Clk,
		Patterns:        cj.Patterns,
		Escaped:         cj.Escaped,
		Suspects:        cj.Suspects,
		TruthInSuspects: cj.TruthInSuspects,
		Rank:            make(map[core.Method]int),
		AutoK:           cj.AutoK,
		AutoKGap:        cj.AutoKGap,
	}
	for name, pos := range cj.Rank {
		m, ok := methodByName(name)
		if !ok {
			return cs, fmt.Errorf("unknown method %q in journal", name)
		}
		cs.Rank[m] = pos
	}
	return cs, nil
}

func methodByName(name string) (core.Method, bool) {
	for _, m := range core.Methods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// checkpointFingerprint hashes (as canonical JSON — readable in the
// header and cheap to compare) every Config field that influences
// per-case results. Workers is excluded on purpose: parallelism never
// changes results in this repo, so a resume on a different machine is
// legal. CheckpointPath/Resume/CaseTimeout are control knobs, not
// result inputs.
func checkpointFingerprint(cfg Config) string {
	key := struct {
		Circuit     string  `json:"circuit"`
		CircuitSeed uint64  `json:"circuit_seed"`
		Seed        uint64  `json:"seed"`
		N           int     `json:"n"`
		MaxPatterns int     `json:"max_patterns"`
		DictSamples int     `json:"dict_samples"`
		ClkSamples  int     `json:"clk_samples"`
		ClkQuantile float64 `json:"clk_quantile"`
		MaxSuspects int     `json:"max_suspects"`
		// Engine changes every clk and dictionary entry; omitempty
		// keeps journals written before the field existed loadable
		// under the default (Monte-Carlo) engine.
		Engine            string        `json:"engine,omitempty"`
		Timing            timing.Params `json:"timing"`
		AssumedSizeFactor [2]float64    `json:"assumed_size_factor"`
	}{
		Circuit:           cfg.Circuit,
		CircuitSeed:       cfg.CircuitSeed,
		Seed:              cfg.Seed,
		N:                 cfg.N,
		MaxPatterns:       cfg.MaxPatterns,
		DictSamples:       cfg.DictSamples,
		ClkSamples:        cfg.ClkSamples,
		ClkQuantile:       cfg.ClkQuantile,
		MaxSuspects:       cfg.MaxSuspects,
		Engine:            cfg.Engine,
		Timing:            cfg.Timing,
		AssumedSizeFactor: cfg.AssumedSizeFactor,
	}
	data, err := json.Marshal(key)
	if err != nil {
		// The key struct is marshal-safe by construction.
		panic(err)
	}
	return string(data)
}

// Checkpoint tracks the completed cases of one experiment run and
// persists them to a crash-safe journal.
type Checkpoint struct {
	path string
	fp   string
	done map[int]CaseResult
}

// LoadCheckpoint opens (or initializes) the journal at path for a run
// with the given config. With resume set, an existing journal whose
// fingerprint matches contributes its completed cases — and a
// fingerprint mismatch is an error, because silently mixing results
// from two different experiments would corrupt the table. Without
// resume any existing journal is discarded and the run starts fresh.
// A truncated trailing line (the crash case an append-based journal
// would produce; ours cannot, but tolerance is free) is skipped.
func LoadCheckpoint(path string, cfg Config, resume bool) (*Checkpoint, error) {
	ck := &Checkpoint{path: path, fp: checkpointFingerprint(cfg), done: make(map[int]CaseResult)}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ck, nil
		}
		return nil, fmt.Errorf("eval: checkpoint %s: %w", path, err)
	}
	defer f.Close()
	if !resume {
		// A fresh run ignores whatever is there; the first Record
		// overwrites it atomically.
		return ck, nil
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return ck, nil // empty file: nothing to resume
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("eval: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, fmt.Errorf("eval: checkpoint %s: journal version %d, this binary writes %d",
			path, hdr.Version, journalVersion)
	}
	if hdr.Fingerprint != ck.fp {
		return nil, fmt.Errorf("eval: checkpoint %s was written by a different experiment configuration; "+
			"rerun without -resume to start fresh (journal %s, run %s)", path, hdr.Fingerprint, ck.fp)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var jl journalLine
		if err := json.Unmarshal([]byte(line), &jl); err != nil {
			// Tolerate a torn trailing line; anything after it is
			// unreachable anyway since lines are written in order.
			break
		}
		cs, err := jl.Result.toCaseResult()
		if err != nil {
			return nil, fmt.Errorf("eval: checkpoint %s: case %d: %w", path, jl.Case, err)
		}
		ck.done[jl.Case] = cs
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eval: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// Get returns the journaled result for case i, if recorded.
func (ck *Checkpoint) Get(i int) (CaseResult, bool) {
	cs, ok := ck.done[i]
	return cs, ok
}

// Completed returns how many cases the journal holds.
func (ck *Checkpoint) Completed() int { return len(ck.done) }

// Record journals case i's result and rewrites the file atomically:
// temp file in the same directory, fsync, rename, directory fsync. A
// crash between any two Records loses at most the in-flight case.
func (ck *Checkpoint) Record(i int, cs CaseResult) error {
	ck.done[i] = cs
	if err := ck.writeAll(); err != nil {
		return err
	}
	checkpointCases.Inc()
	return nil
}

func (ck *Checkpoint) writeAll() error {
	dir := filepath.Dir(ck.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(ck.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	if err := enc.Encode(journalHeader{Version: journalVersion, Fingerprint: ck.fp}); err != nil {
		return fail(err)
	}
	// Cases are journaled in index order so the file is stable for a
	// given completion set and torn-tail recovery skips only the tail.
	for _, i := range sortedCases(ck.done) {
		if err := enc.Encode(journalLine{Case: i, Result: toCaseJSON(ck.done[i])}); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
	if err := os.Rename(tmpName, ck.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename is durable;
// platforms where directories cannot be fsynced degrade to a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func sortedCases(done map[int]CaseResult) []int {
	out := make([]int, 0, len(done))
	for i := range done {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
