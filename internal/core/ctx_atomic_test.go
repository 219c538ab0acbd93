package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuildDictionaryCtxCancelled(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := append(tb.inj.CandidateArcs()[:20:20], tb.site)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := BuildDictionary(ctx, tb.m, tb.pats, suspects, tb.dictConfig(64))
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if d != nil {
		t.Error("cancelled build returned a partial dictionary")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := append(tb.inj.CandidateArcs()[:20:20], tb.site)
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	cd := Compress(d)
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.dict")
	nIn := len(tb.c.Inputs)
	if err := cd.SaveFileAtomic(path, nIn); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, gotIn, err := LoadCompressed(f)
	if err != nil {
		t.Fatal(err)
	}
	if gotIn != nIn || len(got.Suspects) != len(cd.Suspects) || len(got.Patterns) != len(cd.Patterns) {
		t.Errorf("round trip shape mismatch: inputs %d/%d suspects %d/%d patterns %d/%d",
			gotIn, nIn, len(got.Suspects), len(cd.Suspects), len(got.Patterns), len(cd.Patterns))
	}
	// No stray temp files left behind.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("stray temp file %s after successful save", de.Name())
		}
	}
}

func TestSaveFileAtomicOverwritesAndCleansUpOnError(t *testing.T) {
	tb := newBench(t, "mini", 3)
	suspects := append(tb.inj.CandidateArcs()[:20:20], tb.site)
	d, err := BuildDictionary(context.Background(), tb.m, tb.pats, suspects, tb.dictConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	cd := Compress(d)
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.dict")
	if err := os.WriteFile(path, []byte("previous contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	nIn := len(tb.c.Inputs)

	// A failing save (wrong input count triggers Save's width check)
	// must leave the previous file intact and no temp droppings.
	if err := cd.SaveFileAtomic(path, nIn+1); err == nil {
		t.Fatal("save with mismatched input count succeeded")
	}
	prev, err := os.ReadFile(path)
	if err != nil || string(prev) != "previous contents" {
		t.Errorf("failed save disturbed the previous file: %q, %v", prev, err)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("stray temp file %s after failed save", de.Name())
		}
	}

	// A successful save replaces it whole.
	if err := cd.SaveFileAtomic(path, nIn); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := LoadCompressed(f); err != nil {
		t.Errorf("overwritten file does not decode: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.dict")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("replacement bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "replacement bytes" {
		t.Fatalf("contents = %q, %v", got, err)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("stray temp file %s after atomic write", de.Name())
		}
	}
	// A missing destination directory fails without creating anything.
	if err := WriteFileAtomic(filepath.Join(dir, "no-such", "x"), []byte("y")); err == nil {
		t.Error("write into missing directory succeeded")
	}
}
