package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/eval"
)

// goldenFile holds the expected outputs, relative to the fixture
// directory: the SHA-256 of every serving dictionary and the result
// digest of every Table I workload.
const goldenFile = "golden.json"

// fixtureIDs are the serving dictionaries, one per Table I circuit the
// serving workloads cover. Each is what
//
//	ddd-dict build -engine analytic -profile <id> -o <id>.dict
//
// writes (16 patterns, 96 samples, 400 suspects at most). Building all
// four takes about two minutes, so they are committed rather than
// built at set-up.
var fixtureIDs = []string{"s1196", "s1238", "s1423", "s1488"}

type golden struct {
	Dicts   map[string]string `json:"dicts"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g golden
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// verifyFixtures checks every serving dictionary against its golden
// SHA-256.
func verifyFixtures(dir string, want map[string]string) error {
	for _, id := range fixtureIDs {
		got, err := fileSHA256(filepath.Join(dir, id+".dict"))
		if err != nil {
			return err
		}
		if got != want[id] {
			return fmt.Errorf("fixture %s.dict has SHA-256 %s, want %s (%s)", id, got, want[id], goldenFile)
		}
	}
	return nil
}

// regenDicts rebuilds the serving dictionaries exactly as ddd-dict
// build -engine analytic does and prints each file's SHA-256 for
// golden.json.
func regenDicts(dir string) error {
	for _, id := range fixtureIDs {
		cfg := eval.DefaultConfig(id)
		cfg.MaxPatterns = 16
		cfg.DictSamples = 96
		cfg.Engine = "analytic"
		sd, err := eval.BuildStatic(cfg, 400)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		path := filepath.Join(dir, id+".dict")
		if err := core.Compress(sd.Dict).SaveFileAtomic(path, len(sd.C.Inputs)); err != nil {
			return err
		}
		sum, err := fileSHA256(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", id, sum)
	}
	return nil
}
