package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

// TestSummaryCountsSuppressed runs the driver against a package with a
// known //lint:ignore directive (core's bit-identical clk check in
// Merge) and asserts the summary line reports the suppression and the
// process exits 0.
func TestSummaryCountsSuppressed(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "repro/internal/core")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ddd-lint failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 issue(s), 1 suppressed") {
		t.Errorf("summary does not count the suppressed diagnostic:\n%s", out)
	}
}

// TestJSONSchema runs -json against the same package and asserts the
// machine-readable output: a JSON array on stdout whose elements carry
// exactly the documented fields, including the known suppressed core
// finding with its justification.
func TestJSONSchema(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-json", "repro/internal/core")
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

	// core has exactly one finding, suppressed by directive.
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if !strings.HasSuffix(d.File, "dictionary.go") || d.Line <= 0 || d.Column <= 0 {
		t.Errorf("bad position: %+v", d)
	}
	if d.Analyzer != "floateq" || d.Message == "" {
		t.Errorf("bad analyzer/message: %+v", d)
	}
	if !d.Suppressed || !strings.Contains(d.Reason, "bit-identical clk") {
		t.Errorf("suppression not reflected in JSON: %+v", d)
	}
}

// TestVerbosePrintsSuppressed asserts -v surfaces the suppressed
// finding with its justification.
func TestVerbosePrintsSuppressed(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-v", "repro/internal/core")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ddd-lint -v failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "suppressed (merged dictionaries must share a bit-identical clk") {
		t.Errorf("-v does not print the suppression justification:\n%s", out)
	}
}
