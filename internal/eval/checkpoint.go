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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

var checkpointCases = obs.Default().Counter("ddd_checkpoint_cases_total",
	"Cases recorded to an eval checkpoint journal.", nil)

// journalVersion guards the on-disk layout; bump it when CaseResult's
// serialized form changes incompatibly so a stale journal is detected,
// not misread.
const journalVersion = 2

// journalHeader is the journal's first line.
type journalHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// journalLine is every subsequent line: one completed case.
type journalLine struct {
	Case   int        `json:"case"`
	Result CaseResult `json:"result"`
}

// checkpointFingerprint is the canonical JSON of cfg — readable in the
// header and cheap to compare. Config tags the fields that cannot
// change a case's result json:"-" (Workers: parallelism never changes
// results in this repo, so a resume on a different machine is legal;
// CheckpointPath/Resume: control knobs), so every other field,
// including one added later, is part of the fingerprint.
func checkpointFingerprint(cfg Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		// Config holds only strings, integers and finite floats.
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
			var torn *json.SyntaxError
			if errors.As(err, &torn) {
				// Tolerate a torn trailing line; anything after it is
				// unreachable anyway since lines are written in order.
				break
			}
			// A complete line that does not decode (an unknown method
			// name, a mistyped field) is a corrupt journal.
			return nil, fmt.Errorf("eval: checkpoint %s: case %d: %w", path, jl.Case, err)
		}
		if jl.Result.Rank == nil {
			jl.Result.Rank = make(map[core.Method]int)
		}
		ck.done[jl.Case] = jl.Result
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
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(journalHeader{Version: journalVersion, Fingerprint: ck.fp}); err != nil {
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
	// Cases are journaled in index order so the file is stable for a
	// given completion set and torn-tail recovery skips only the tail.
	for _, i := range sortedCases(ck.done) {
		if err := enc.Encode(journalLine{Case: i, Result: ck.done[i]}); err != nil {
			return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
		}
	}
	if err := core.WriteFileAtomic(ck.path, buf.Bytes()); err != nil {
		return fmt.Errorf("eval: checkpoint %s: %w", ck.path, err)
	}
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
