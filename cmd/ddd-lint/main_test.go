package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// fixture is a package with two known //lint:ignore floateq
// directives (an exact waveform compare and an exact arrival compare).
// It lives under testdata, so ./... patterns, and with them the
// repository's own lint run, leave it out.
const fixture = "./testdata/floatcmp"

// TestSummaryCountsSuppressed runs the driver against the fixture and
// asserts the summary line reports the suppressions and the process
// exits 0.
func TestSummaryCountsSuppressed(t *testing.T) {
	cmd := exec.Command("go", "run", ".", fixture)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ddd-lint failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 issue(s), 2 suppressed") {
		t.Errorf("summary does not count the suppressed diagnostic:\n%s", out)
	}
}

// TestJSONSchema runs -json against the same package and asserts the
// machine-readable output: a JSON array on stdout whose elements carry
// exactly the documented fields, including the fixture's known
// suppressed findings with their justifications.
func TestJSONSchema(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-json", fixture)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ddd-lint -json failed: %v\nstderr: %s", err, stderr.String())
	}

	// The schema is the tool's public contract: unknown fields mean the
	// struct here and the emitter have drifted apart.
	type diag struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Column     int    `json:"column"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
		Reason     string `json:"reason,omitempty"`
	}
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var diags []diag
	if err := dec.Decode(&diags); err != nil {
		t.Fatalf("stdout is not a JSON array of the documented schema: %v\n%s", err, stdout.String())
	}

	// The fixture has exactly two findings, each suppressed by directive.
	want := []struct{ file, reason string }{
		{"identity.go", "waveform identity is exact"},
		{"window.go", "arrivals match exactly"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %+v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if !strings.HasSuffix(d.File, want[i].file) || d.Line <= 0 || d.Column <= 0 {
			t.Errorf("bad position: %+v", d)
		}
		if d.Analyzer != "floateq" || d.Message == "" {
			t.Errorf("bad analyzer/message: %+v", d)
		}
		if !d.Suppressed || !strings.Contains(d.Reason, want[i].reason) {
			t.Errorf("suppression not reflected in JSON: %+v", d)
		}
	}
}

// TestVerbosePrintsSuppressed asserts -v surfaces a suppressed
// finding with its justification.
func TestVerbosePrintsSuppressed(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-v", fixture)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ddd-lint -v failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "suppressed (waveform identity is exact: both sides are the same float sums)") {
		t.Errorf("-v does not print the suppression justification:\n%s", out)
	}
}

// TestRepositoryLintClean runs the whole suite over every package of
// the module, as `make lint` does, and fails on any diagnostic that no
// //lint:ignore directive suppresses, so `go test ./...` alone catches
// a change that breaks the determinism and pairing invariants.
func TestRepositoryLintClean(t *testing.T) {
	pkgs, err := analysis.Load("repro/...")
	if err != nil {
		t.Fatalf("loading repro/...: %v", err)
	}
	diags, err := analysis.Run(Analyzers, pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}
