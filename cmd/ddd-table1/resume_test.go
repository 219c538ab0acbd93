package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestKillAndResumeReproducesTable is the crash-safety smoke test: a
// checkpointed run SIGKILLed mid-experiment and then rerun with
// -resume must print byte-identical Table I output to an
// uninterrupted run. Only stdout is compared — stderr carries
// wall-clock timings.
func TestKillAndResumeReproducesTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ddd-table1 binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ddd-table1")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-circuits", "mini", "-n", "10", "-samples", "32", "-patterns", "5"}
	ckDir := filepath.Join(dir, "ck")

	run := func(extra ...string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(append([]string{}, args...), extra...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, stderr.String())
		}
		return stdout.Bytes()
	}
	want := run()

	// Start a checkpointed run and SIGKILL it as soon as the journal
	// shows progress. Losing the race (the run finishing before the
	// kill lands) degrades this to plain resume-equivalence, which
	// must hold regardless.
	journal := filepath.Join(ckDir, "mini.journal")
	victim := exec.Command(bin, append(append([]string{}, args...), "-checkpoint", ckDir)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if st, err := os.Stat(journal); err == nil && st.Size() > 0 {
			killed = victim.Process.Kill() == nil
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = victim.Wait()
	t.Logf("killed mid-run: %v", killed)

	got := run("-checkpoint", ckDir, "-resume")
	if !bytes.Equal(got, want) {
		t.Errorf("resumed table differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestResumeRejectsStaleJournal: a journal written in an older layout
// must stop a -resume run with an error naming both layout versions,
// never be misread into the table.
func TestResumeRejectsStaleJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ddd-table1 binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ddd-table1")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ckDir := filepath.Join(dir, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	v1 := `{"version":1,"fingerprint":"{\"circuit\":\"mini\"}"}
{"case":0,"result":{"instance":0,"defect_arc":3,"defect_size":0.5,"clk":1.5,"patterns":2,"suspects":4,"rank":{"Alg_rev":1}}}
`
	if err := os.WriteFile(filepath.Join(ckDir, "mini.journal"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-circuits", "mini", "-n", "2", "-samples", "32", "-patterns", "5",
		"-checkpoint", ckDir, "-resume")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("-resume over a version-1 journal succeeded:\n%s", stdout.String())
	}
	if want := "journal version 1, this binary writes 2"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not name both journal versions (%q):\n%s", want, stderr.String())
	}
}
