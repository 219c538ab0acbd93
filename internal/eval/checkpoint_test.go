package eval

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/synth"
)

func mustCircuit(t *testing.T, cfg Config) *circuit.Circuit {
	t.Helper()
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// journalConfig returns fastConfig("small", n) with a checkpoint
// journal in a temp dir, and the journal's path. On "small" most cases
// rank (on "mini" the first five all escape), so the journal holds
// ranks, AutoK and AutoKGap floats.
func journalConfig(t *testing.T, n int) (Config, string) {
	t.Helper()
	cfg := fastConfig("small", n)
	path := filepath.Join(t.TempDir(), "small.journal")
	cfg.CheckpointPath = path
	return cfg, path
}

// requireRanked fails unless the journal at path holds a ranked case:
// a non-empty Rank and an AutoK. Without one a round trip through the
// journal checks only escapes.
func requireRanked(t *testing.T, path string, cfg Config) {
	t.Helper()
	ck, err := LoadCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range ck.done {
		if len(cs.Rank) > 0 && cs.AutoK > 0 {
			return
		}
	}
	t.Fatalf("none of the %d journaled cases is ranked", len(ck.done))
}

func casesEqual(t *testing.T, a, b []CaseResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("case %d diverged:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

// TestCheckpointRoundTripBitExact: a checkpointed run must produce
// the same cases as an uncheckpointed one, and a full resume (every
// case loaded from the journal, nothing recomputed) must reproduce
// them exactly — ranks, floats and all.
func TestCheckpointRoundTripBitExact(t *testing.T) {
	plainCfg := fastConfig("small", 4)
	plain, err := RunCircuit(plainCfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg, path := journalConfig(t, 4)
	first, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	casesEqual(t, plain.Cases, first.Cases)

	cfg.Resume = true
	resumed, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	casesEqual(t, first.Cases, resumed.Cases)

	// The journal really holds every case.
	ck, err := LoadCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.done) != 4 {
		t.Errorf("journal holds %d cases, want 4", len(ck.done))
	}
	requireRanked(t, path, cfg)
}

// TestCheckpointPartialResume simulates a kill mid-run: the journal
// is truncated to its first two cases, and the resumed run must
// recompute only the missing cases and still match a fresh run
// exactly.
func TestCheckpointPartialResume(t *testing.T) {
	cfg, path := journalConfig(t, 4)
	full, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Keep header + first two case lines, drop the rest — the state a
	// SIGKILL between Record(1) and Record(2) leaves behind.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want >= 4", len(lines))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	requireRanked(t, path, cfg)

	cfg.Resume = true
	resumed, err := RunCircuit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	casesEqual(t, full.Cases, resumed.Cases)
}

// TestCheckpointFingerprintMismatch: resuming a journal written under
// a different configuration must fail loudly; the same journal
// without -resume starts fresh.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	cfg, path := journalConfig(t, 2)
	if _, err := RunCircuit(cfg); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed++
	other.Resume = true
	if _, err := LoadCheckpoint(path, other, true); err == nil {
		t.Fatal("resume under a different config succeeded; results would be mixed")
	}

	// Without resume the stale journal is ignored and overwritten.
	other.Resume = false
	if _, err := RunCircuit(other); err != nil {
		t.Fatalf("fresh run over a stale journal: %v", err)
	}
	ck, err := LoadCheckpoint(path, other, true)
	if err != nil {
		t.Fatalf("journal after fresh run does not match its config: %v", err)
	}
	if len(ck.done) != 2 {
		t.Errorf("rewritten journal holds %d cases, want 2", len(ck.done))
	}
}

// TestCheckpointTornTailTolerated: a torn trailing line (half-written
// case) is skipped; the intact prefix resumes.
func TestCheckpointTornTailTolerated(t *testing.T) {
	cfg, path := journalConfig(t, 3)
	if _, err := RunCircuit(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"case":7,"result":{"instance":7,"de`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck, err := LoadCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatalf("torn tail broke the load: %v", err)
	}
	if len(ck.done) != 3 {
		t.Errorf("journal holds %d cases, want the 3 intact ones", len(ck.done))
	}
	if _, ok := ck.Get(7); ok {
		t.Error("torn case 7 was loaded")
	}
}

// TestRunOnCircuitCtxCancelled: a dead context aborts the run before
// any case executes.
func TestRunOnCircuitCtxCancelled(t *testing.T) {
	cfg := fastConfig("mini", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunOnCircuitCtx(ctx, mustCircuit(t, cfg), cfg)
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if res != nil {
		t.Error("cancelled run returned a partial result")
	}
}

// v1Journal is a journal in the version-1 layout, whose case lines
// kept the defect as flat defect_arc/defect_size keys.
const v1Journal = `{"version":1,"fingerprint":"{\"circuit\":\"mini\"}"}
{"case":0,"result":{"instance":0,"defect_arc":3,"defect_size":0.5,"clk":1.5,"patterns":2,"suspects":4,"rank":{"Alg_rev":1}}}
`

// TestCheckpointRejectsStaleOrCorruptJournal: under resume, a journal
// of another layout version fails with both versions named; a case
// ranked by every method round-trips exactly; and a complete case line
// with an unknown method name fails the load instead of passing for a
// torn tail.
func TestCheckpointRejectsStaleOrCorruptJournal(t *testing.T) {
	cfg, path := journalConfig(t, 2)
	if err := os.WriteFile(path, []byte(v1Journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path, cfg, true)
	if err == nil || !strings.Contains(err.Error(), "journal version 1, this binary writes 2") {
		t.Errorf("version-1 journal: err = %v", err)
	}

	ck, err := LoadCheckpoint(path, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	want := CaseResult{
		Instance: 1, Defect: defect.Defect{Arc: 7, Size: 0.1 + 0.2}, Clk: 1.0 / 3, Patterns: 5,
		Suspects: 40, TruthInSuspects: true, Rank: map[core.Method]int{}, AutoK: 3, AutoKGap: 2.0 / 7,
	}
	for m := core.MethodI; m <= core.LogLik; m++ {
		want.Rank[m] = int(m) + 1
	}
	if err := ck.Record(1, want); err != nil {
		t.Fatal(err)
	}
	ck, err = LoadCheckpoint(path, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ck.Get(1); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("journaled case = %+v, %v; want %+v", got, ok, want)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"Alg_rev":`, `"Alg_bogus":`, 1)
	if bad == string(data) {
		t.Fatalf("journal does not key ranks by method name:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(path, cfg, true)
	if err == nil || !strings.Contains(err.Error(), `unknown method "Alg_bogus"`) {
		t.Errorf("unknown method name: err = %v", err)
	}
}

// FuzzCheckpointJournal: LoadCheckpoint over arbitrary bytes must
// never panic — it either errors or returns a consistent checkpoint
// whose cases all parse.
func FuzzCheckpointJournal(f *testing.F) {
	cfg := fastConfig("mini", 2)
	fp := checkpointFingerprint(cfg)
	hdr := "{\"version\":2,\"fingerprint\":" + quoteJSON(fp) + "}\n"
	f.Add([]byte(""))
	f.Add([]byte("{\"version\":2,\"fingerprint\":\"x\"}\n"))
	f.Add([]byte(hdr + `{"case":0,"result":{"instance":0,"defect":{"arc":3,"size":0.5},"clk":1.5,"patterns":2,"suspects":4,"rank":{"Alg_rev":1}}}` + "\n"))
	f.Add([]byte(hdr + `{"case":0,"result":{"instance":0,"de`))
	f.Add([]byte(hdr + `{"case":0,"result":{"instance":0,"defect":{"arc":3,"size":0.5},"clk":1.5,"patterns":2,"suspects":4,"rank":{"Alg_bogus":1}}}` + "\n"))
	f.Add([]byte(v1Journal))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		ck, err := LoadCheckpoint(path, cfg, true)
		if err != nil {
			return // rejecting bad input is correct
		}
		for i := 0; i < 64; i++ {
			if cs, ok := ck.Get(i); ok && cs.Rank == nil {
				t.Errorf("loaded case %d has a nil Rank map", i)
			}
		}
	})
}

func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}
