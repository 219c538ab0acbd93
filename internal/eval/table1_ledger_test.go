package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// ledgerPath pins the per-case Table I output of small and s1238 at
// DefaultConfig with N = 6, under both engines: the configuration of
// the hand-run ddd-table1 byte-identity check, as one line per case.
const ledgerPath = "testdata/table1_ledger.jsonl"

// ledgerLine is one case of the Table I ledger.
type ledgerLine struct {
	Engine  string     `json:"engine"`
	Circuit string     `json:"circuit"`
	Case    CaseResult `json:"case"`
}

// table1Ledger recomputes the ledger, engine-major, then circuit, then
// case index.
func table1Ledger(t *testing.T) []string {
	var lines []string
	for _, eng := range []string{"mc", "analytic"} {
		for _, name := range []string{"small", "s1238"} {
			cfg := DefaultConfig(name)
			cfg.N = 6
			cfg.Engine = eng
			res, err := RunCircuit(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, name, err)
			}
			for _, cs := range res.Cases {
				b, err := json.Marshal(ledgerLine{Engine: eng, Circuit: name, Case: cs})
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, string(b))
			}
		}
	}
	return lines
}

// TestTable1Ledger is the committed form of the Table I byte-identity
// check: every case's CaseResult (ranks under every method, suspects,
// clk, defect) must reproduce exactly. A change that moves Table I on
// purpose regenerates the file from the ledger this test prints.
func TestTable1Ledger(t *testing.T) {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := table1Ledger(t)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			var all bytes.Buffer
			for _, l := range got {
				all.WriteString(l + "\n")
			}
			t.Fatalf("%s line %d differs:\n got %s\nwant %s\nrecomputed ledger:\n%s", ledgerPath, i+1, g, w, all.String())
		}
	}
}
