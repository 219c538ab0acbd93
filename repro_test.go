package repro_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestFacadeGenerateAndBenchIO(t *testing.T) {
	c, err := repro.GenerateCircuit("mini", 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := repro.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := repro.ParseBench(strings.NewReader(sb.String()), "mini")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != back.Stats() {
		t.Errorf("bench round trip changed stats: %v -> %v", c.Stats(), back.Stats())
	}
}

func TestFacadeProfilesListed(t *testing.T) {
	names := map[string]bool{}
	for _, p := range repro.Profiles() {
		names[p.Name] = true
	}
	for _, want := range []string{"s1196", "s15850", "mini"} {
		if !names[want] {
			t.Errorf("profile %s missing", want)
		}
	}
}

// TestFacadeFullPipeline drives the whole public API end to end: the
// quickstart flow as a regression test.
func TestFacadeFullPipeline(t *testing.T) {
	c, err := repro.GenerateCircuit("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPipeline(c, repro.DefaultExperimentConfig("small"))
	if err != nil {
		t.Fatal(err)
	}
	cs := p.NewCase(4)
	if err := p.Run(context.Background(), cs); err != nil {
		t.Fatal(err)
	}
	if cs.Escaped {
		t.Fatal("defect escaped (seed regression)")
	}
	if cs.Ranked == nil {
		t.Fatal("truth pruned from the suspects (seed regression)")
	}
	for _, m := range repro.Methods {
		if len(cs.Ranked[m]) != len(cs.Suspects) {
			t.Fatalf("%v: ranking size mismatch", m)
		}
	}
	// The quickstart case is known to rank the truth near the top
	// under AlgRev; allow slack but catch regressions.
	if rank := cs.Position(repro.AlgRev, cs.Truth[0].Arc); rank == 0 || rank > len(cs.Suspects)/4 {
		t.Errorf("AlgRev ranked the truth at %d of %d", rank, len(cs.Suspects))
	}
}

func TestFacadeExperiment(t *testing.T) {
	cfg := repro.DefaultExperimentConfig("mini")
	cfg.N = 3
	cfg.DictSamples = 24
	cfg.ClkSamples = 50
	cfg.MaxPatterns = 4
	res, err := repro.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 3 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
}

func TestFacadeExtensions(t *testing.T) {
	c, err := repro.GenerateCircuit("mini", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := repro.ComputeScoap(c)
	if len(s.CC0) != c.NumGates() {
		t.Errorf("SCOAP size mismatch")
	}
	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
	tests := repro.DiagnosticPatterns(model, repro.ArcID(5), 3, 7)
	if len(tests) > 0 {
		pats := []repro.PatternPair{tests[0].Pair}
		cov := repro.ArcCoverage(c, pats)
		if cov.Covered < 1 {
			t.Errorf("diagnostic pattern covers nothing")
		}
		var vcd strings.Builder
		die := model.SampleInstanceSeeded(1, 0)
		if err := repro.WriteVCD(&vcd, c, die, tests[0].Pair, 1000); err != nil {
			t.Errorf("WriteVCD: %v", err)
		}
		if !strings.Contains(vcd.String(), "$dumpvars") {
			t.Errorf("VCD output malformed")
		}
	}
}

func TestFacadeCompressedRoundTrip(t *testing.T) {
	cfg := repro.DefaultExperimentConfig("mini")
	cfg.MaxPatterns = 4
	cfg.DictSamples = 24
	cfg.ClkSamples = 40
	sd, err := repro.BuildStaticDictionary(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	cd := repro.Compress(sd.Dict)
	var buf strings.Builder
	if err := cd.Save(&buf, len(sd.C.Inputs)); err != nil {
		t.Fatal(err)
	}
	back, nIn, err := repro.LoadDictionary(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if nIn != len(sd.C.Inputs) || len(back.Suspects) != len(cd.Suspects) {
		t.Errorf("round trip changed dictionary")
	}
}

func TestFacadeSimulateAtClock(t *testing.T) {
	c, err := repro.GenerateCircuit("mini", 1)
	if err != nil {
		t.Fatal(err)
	}
	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
	die := model.SampleInstanceSeeded(3, 0)
	tests := repro.DiagnosticPatterns(model, repro.ArcID(5), 2, 7)
	if len(tests) == 0 {
		t.Skip("no patterns for this arc")
	}
	// At an infinite-like clock nothing fails.
	if fails := repro.SimulateAtClock(c, die, tests[0].Pair, 1e9); len(fails) != 0 {
		t.Errorf("failures at infinite clock: %v", fails)
	}
}

func TestFacadeMergeDictionaries(t *testing.T) {
	cfg := repro.DefaultExperimentConfig("mini")
	cfg.MaxPatterns = 4
	cfg.DictSamples = 24
	cfg.ClkSamples = 40
	sd, err := repro.BuildStaticDictionary(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	d := sd.Dict
	merged, err := repro.MergeDictionaries(d, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Patterns) != 2*len(d.Patterns) || merged.M.Cols != 2*d.M.Cols {
		t.Errorf("merged %d patterns (%d columns), want twice %d", len(merged.Patterns), merged.M.Cols, len(d.Patterns))
	}
	other := *d
	other.Clk++
	if _, err := repro.MergeDictionaries(d, &other); err == nil {
		t.Error("merged dictionaries with different clk")
	}
}

func TestFacadeDiagnosisServer(t *testing.T) {
	if _, err := repro.NewDiagnosisServer(repro.ServeConfig{Dir: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("server accepted a missing dictionary directory")
	}
	srv, err := repro.NewDiagnosisServer(repro.ServeConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", rec.Code)
	}
}
