package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// The shared test fixture: two small compressed dictionaries ("alpha",
// "beta") built from the same mini circuit with different pattern-set
// seeds, plus, for each, a failing behavior observed on a defective
// die and the Alg_rev top-1 arc the service must reproduce. Building
// dictionaries costs real Monte-Carlo simulation, so it happens once
// per test binary.
type dictFixture struct {
	blob     []byte
	behavior []string
	top1     int
}

var (
	fixOnce sync.Once
	fixErr  error
	fixture map[string]*dictFixture
)

func buildDictFixture(seed uint64) (*dictFixture, error) {
	cfg := eval.DefaultConfig("mini")
	cfg.Seed = seed
	cfg.MaxPatterns = 6
	cfg.DictSamples = 24
	cfg.ClkSamples = 50
	sd, err := eval.BuildStatic(cfg, 60)
	if err != nil {
		return nil, err
	}
	cd := core.Compress(sd.Dict)
	var buf bytes.Buffer
	if err := cd.Save(&buf, len(sd.C.Inputs)); err != nil {
		return nil, err
	}
	// Inject a defect at a stored suspect until the die fails; that
	// behavior is the request payload every test reuses.
	inst := sd.Model.SampleInstanceSeeded(seed, 7)
	var b *core.Behavior
	for mult := 3.0; b == nil && mult <= 100; mult *= 2 {
		size := mult * sd.Model.MeanCellDelay()
		for _, arc := range sd.Dict.Suspects {
			bb := core.SimulateBehavior(sd.C, inst.Delays, sd.Patterns, arc, size, sd.Clk)
			if bb.AnyFailure() {
				b = bb
				break
			}
		}
	}
	if b == nil {
		return nil, fmt.Errorf("seed %d: no suspect produces a failing behavior", seed)
	}
	ranked := cd.Diagnose(b, core.AlgRev, 1)
	return &dictFixture{
		blob:     buf.Bytes(),
		behavior: behaviorStrings(b),
		top1:     int(ranked[0].Arc),
	}, nil
}

func getFixture(tb testing.TB) map[string]*dictFixture {
	fixOnce.Do(func() {
		fixture = make(map[string]*dictFixture)
		for name, seed := range map[string]uint64{"alpha": 11, "beta": 23} {
			fx, err := buildDictFixture(seed)
			if err != nil {
				fixErr = err
				return
			}
			fixture[name] = fx
		}
	})
	if fixErr != nil {
		tb.Fatal(fixErr)
	}
	return fixture
}

// writeDictDir materializes the fixture dictionaries into a fresh
// directory and returns it.
func writeDictDir(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	for id, fx := range getFixture(tb) {
		if err := os.WriteFile(filepath.Join(dir, id+".dict"), fx.blob, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

func behaviorStrings(b *core.Behavior) []string {
	rows := make([]string, b.Rows)
	for i := 0; i < b.Rows; i++ {
		var sb strings.Builder
		for j := 0; j < b.Cols; j++ {
			if b.At(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		rows[i] = sb.String()
	}
	return rows
}

// diagnoseBody renders the canonical request body for a fixture dict.
func diagnoseBody(tb testing.TB, id, method string, k int) []byte {
	tb.Helper()
	fx := getFixture(tb)[id]
	rows := make([]string, len(fx.behavior))
	for i, r := range fx.behavior {
		rows[i] = fmt.Sprintf("%q", r)
	}
	var method2 string
	if method != "" {
		method2 = fmt.Sprintf(`"method":%q,`, method)
	}
	return []byte(fmt.Sprintf(`{"dict":%q,%s"k":%d,"behavior":[%s]}`,
		id, method2, k, strings.Join(rows, ",")))
}
