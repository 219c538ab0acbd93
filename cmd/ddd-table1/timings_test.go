package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTimingsShowDictLedger runs ddd-table1 -timings on one worker:
// stderr must carry every dict_build.<name> ledger row after the stage
// table, the four sub-stage times must not sum to more than the
// dict_build stage's wall time (which they nest inside), and stdout
// must be the same as without -timings.
func TestTimingsShowDictLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ddd-table1 binary")
	}
	bin := filepath.Join(t.TempDir(), "ddd-table1")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var o, e bytes.Buffer
		args := append([]string{"-circuits", "small", "-n", "3", "-samples", "16", "-patterns", "4", "-workers", "1"}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, e.String())
		}
		return o.String(), e.String()
	}
	plain, _ := run()
	stdout, stderr := run("-timings")
	if stdout != plain {
		t.Errorf("-timings changed stdout:\n--- without ---\n%s--- with ---\n%s", plain, stdout)
	}

	rows := make(map[string]float64)
	build := -1.0
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && f[0] == "dict_build":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("stage row %q: %v", line, err)
			}
			build = v
		case len(f) == 2 && strings.HasPrefix(f[0], "dict_build."):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("ledger row %q: %v", line, err)
			}
			rows[strings.TrimPrefix(f[0], "dict_build.")] = v
		}
	}
	if build < 0 {
		t.Fatalf("no dict_build stage row in stderr:\n%s", stderr)
	}
	sum := 0.0
	for _, name := range []string{"sample_s", "baseline_s", "defect_s", "accumulate_s", "defect_simulated", "defect_skipped"} {
		v, ok := rows[name]
		if !ok {
			t.Fatalf("no dict_build.%s row in stderr:\n%s", name, stderr)
		}
		if strings.HasSuffix(name, "_s") {
			sum += v
		}
	}
	if rows["defect_simulated"] == 0 {
		t.Errorf("no defect re-simulation recorded; the fixture builds no Monte-Carlo dictionary")
	}
	// The stage table rounds to 1 ms, the ledger rows to 1 µs.
	if sum > build+0.0005+4e-6 {
		t.Errorf("dictionary sub-stages sum to %.6f s, more than the dict_build stage's %.3f s", sum, build)
	}
}
