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

// journalPath runs fastConfig("mini", n) with a checkpoint journal in
// a temp dir and returns (cfg, path).
func journalConfig(t *testing.T, n int) (Config, string) {
	t.Helper()
	cfg := fastConfig("mini", n)
	path := filepath.Join(t.TempDir(), "mini.journal")
	cfg.CheckpointPath = path
	return cfg, path
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
	plainCfg := fastConfig("mini", 4)
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

// FuzzCheckpointJournal: LoadCheckpoint over arbitrary bytes must
// never panic — it either errors or returns a consistent checkpoint
// whose cases all parse.
func FuzzCheckpointJournal(f *testing.F) {
	cfg := fastConfig("mini", 2)
	fp := checkpointFingerprint(cfg)
	f.Add([]byte(""))
	f.Add([]byte("{\"version\":1,\"fingerprint\":\"x\"}\n"))
	f.Add([]byte("{\"version\":1,\"fingerprint\":" + quoteJSON(fp) + "}\n" +
		`{"case":0,"result":{"instance":0,"defect_arc":3,"defect_size":0.5,"clk":1.5,"patterns":2,"suspects":4,"rank":{"Alg_rev":1}}}` + "\n"))
	f.Add([]byte("{\"version\":1,\"fingerprint\":" + quoteJSON(fp) + "}\n" + `{"case":0,"result":{"instance":0,"de`))
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
