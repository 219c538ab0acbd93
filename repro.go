// Package repro is a from-scratch reproduction of "Delay Defect
// Diagnosis Based Upon Statistical Timing Models – The First Step"
// (Krstic, Wang, Cheng, Liou, Abadir — DATE 2003): statistical delay
// defect diagnosis for gate-level circuits, together with every
// substrate it needs — a netlist model with ISCAS'89 .bench I/O and a
// statistics-matched benchmark generator, a correlated statistical
// timing model with Monte-Carlo and Clark-approximation STA, an
// timed waveform simulator with defect overlays, path enumeration,
// a two-frame PODEM path-delay ATPG, segment-oriented defect models,
// the probabilistic fault dictionary, the paper's four diagnosis error
// functions, and the full Table-I / Figure-1..3 evaluation harness.
//
// This package is the stable facade: it re-exports the workflow types
// and provides one-call helpers for the common pipelines. The
// underlying packages live in internal/ and are documented
// individually.
//
// # Quick start
//
//	c, _ := repro.GenerateCircuit("s1196", 2003)
//	model := repro.NewTimingModel(c, repro.DefaultTimingParams())
//	result, _ := repro.RunExperiment(repro.DefaultExperimentConfig("s1196"))
//	fmt.Println(result.SuccessRate(repro.AlgRev, 7))
package repro

import (
	"io"

	"repro/internal/atpg"
	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/eval"
	"repro/internal/logicsim"
	"repro/internal/path"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/tsim"
)

// Circuit substrate.
type (
	// Circuit is a gate-level netlist DAG (scan-converted when built
	// from a sequential source).
	Circuit = circuit.Circuit
	// Gate is one cell instance.
	Gate = circuit.Gate
	// Arc is a pin-to-pin timing edge, the unit of delay and of defect
	// location.
	Arc = circuit.Arc
	// GateID indexes gates; ArcID indexes arcs.
	GateID = circuit.GateID
	// ArcID indexes arcs within a circuit.
	ArcID = circuit.ArcID
	// CellType enumerates the cell library.
	CellType = circuit.CellType
	// Profile describes a synthetic benchmark's target shape.
	Profile = synth.Profile
)

// Timing substrate.
type (
	// TimingParams configures the statistical cell library.
	TimingParams = timing.Params
	// TimingModel is the statistical circuit model C: one delay random
	// variable per arc, with global/local correlation.
	TimingModel = timing.Model
	// Instance is a fixed-delay circuit instance C_in.
	Instance = timing.Instance
)

// Patterns, paths and ATPG.
type (
	// Vector assigns one logic value per circuit input.
	Vector = logicsim.Vector
	// PatternPair is a two-vector delay test.
	PatternPair = logicsim.PatternPair
	// Path is an input-to-output path (an ordered arc sequence).
	Path = path.Path
	// PathTestResult is a generated test for one target path.
	PathTestResult = atpg.PathTestResult
	// ATPG is the two-frame PODEM path-delay test generator.
	ATPG = atpg.Generator
)

// Defects and diagnosis.
type (
	// Defect is one concrete injected defect (location + size).
	Defect = defect.Defect
	// DefectParams configures defect injection.
	DefectParams = defect.Params
	// Injector draws random single defects.
	Injector = defect.Injector
	// Dictionary is the probabilistic fault dictionary.
	Dictionary = core.Dictionary
	// DictConfig configures dictionary construction.
	DictConfig = core.DictConfig
	// Matrix is an outputs × patterns probability matrix.
	Matrix = core.Matrix
	// Behavior is the observed 0-1 failing-behavior matrix B.
	Behavior = core.Behavior
	// Method selects a diagnosis error function.
	Method = core.Method
	// Ranked is one candidate in a diagnosis result.
	Ranked = core.Ranked
)

// Evaluation harness.
type (
	// ExperimentConfig parameterizes a Table-I-style experiment.
	ExperimentConfig = eval.Config
	// ExperimentResult aggregates the diagnosis cases of one circuit.
	ExperimentResult = eval.CircuitResult
	// Table1Row is one (circuit, K) row of Table I.
	Table1Row = eval.Table1Row
	// Pipeline runs the per-case diagnosis chain — patterns, clk,
	// behavior, suspects, dictionary, ranking — over one circuit.
	Pipeline = eval.Pipeline
	// Case is one injected-defect diagnosis case and what each
	// pipeline stage produced for it.
	Case = eval.Case
)

// Extensions beyond the paper's core algorithms.
type (
	// CompressedDictionary is the sparse/quantized persistent form of
	// a fault dictionary (future-work item 4).
	CompressedDictionary = core.CompressedDictionary
	// MultiDefect is a set of simultaneous defects (future-work item 3).
	MultiDefect = defect.MultiDefect
	// IterativeResult is one round of multi-defect peeling diagnosis.
	IterativeResult = core.IterativeResult
	// Scoap holds SCOAP testability measures.
	Scoap = circuit.Scoap
	// Criticality holds per-arc critical-path probabilities.
	Criticality = timing.Criticality
	// CoverageResult reports a pattern set's arc coverage.
	CoverageResult = atpg.CoverageResult
	// StaticDictionary bundles a precomputed dictionary with its
	// stimuli (the effect-cause workflow).
	StaticDictionary = eval.StaticDictionary
)

// The paper's diagnosis methods.
const (
	MethodI   = core.MethodI   // Alg_sim Method I
	MethodII  = core.MethodII  // Alg_sim Method II
	MethodIII = core.MethodIII // Alg_sim Method III
	AlgRev    = core.AlgRev    // Alg_rev (Euclidean error function)
)

// Methods lists all built-in diagnosis methods.
var Methods = core.Methods

// GenerateCircuit builds the named synthetic benchmark circuit
// (s1196 … s15850, or mini/small/medium) deterministically from seed.
func GenerateCircuit(profile string, seed uint64) (*Circuit, error) {
	return synth.GenerateNamed(profile, seed)
}

// Profiles lists the available synthetic benchmark profiles.
func Profiles() []Profile { return synth.Profiles }

// ParseBench reads an ISCAS'89 .bench netlist; sequential circuits are
// scan-converted (DFFs become pseudo-PI/PO pairs).
func ParseBench(r io.Reader, name string) (*Circuit, error) {
	return benchfmt.Parse(r, name, true)
}

// WriteBench emits a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return benchfmt.Write(w, c) }

// DefaultTimingParams returns the statistical cell library defaults.
func DefaultTimingParams() TimingParams { return timing.DefaultParams() }

// NewTimingModel characterizes every arc of c under p.
func NewTimingModel(c *Circuit, p TimingParams) *TimingModel { return timing.NewModel(c, p) }

// NewInjector returns a defect injector using the paper's size model.
func NewInjector(c *Circuit, m *TimingModel) *Injector {
	return defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams())
}

// KLongestPaths returns the k longest input-to-output paths by nominal
// delay.
func KLongestPaths(m *TimingModel, k int) []Path { return path.KLongest(m.C, m.Nominal, k) }

// KLongestPathsThrough returns the k longest paths through arc site.
func KLongestPathsThrough(m *TimingModel, site ArcID, k int) []Path {
	return path.KLongestThrough(m.C, m.Nominal, site, k)
}

// DiagnosticPatterns generates up to maxPatterns two-vector tests
// exercising the longest sensitizable paths through the fault site
// (the paper's Section H-4 methodology).
func DiagnosticPatterns(m *TimingModel, site ArcID, maxPatterns int, seed uint64) []PathTestResult {
	return atpg.DiagnosticPatterns(m.C, m.Nominal, site, maxPatterns, rng.New(seed))
}

// SimulateBehavior produces the behavior matrix of a failing die: the
// instance's delays plus an injected defect, captured at clk.
func SimulateBehavior(c *Circuit, inst *Instance, pats []PatternPair, d Defect, clk float64) *Behavior {
	return core.SimulateBehavior(c, inst.Delays, pats, d.Arc, d.Size, clk)
}

// DefaultExperimentConfig returns the Table-I experiment parameters
// for the named circuit profile.
func DefaultExperimentConfig(circuitName string) ExperimentConfig {
	return eval.DefaultConfig(circuitName)
}

// NewPipeline returns the per-case diagnosis pipeline over c with the
// experiment parameters of cfg: Pipeline.NewCase(i) draws case i's die
// and defect exactly as RunExperiment does, and Pipeline.Run takes it
// through every stage.
func NewPipeline(c *Circuit, cfg ExperimentConfig) (*Pipeline, error) {
	return eval.NewPipeline(c, cfg)
}

// RunExperiment executes the paper's Section-I evaluation for one
// circuit: N instances, random defect injection, diagnostic pattern
// generation, behavior observation, dictionary construction and
// diagnosis with every method.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return eval.RunCircuit(cfg)
}

// SimulateAtClock runs one timed simulation of a pattern on an
// instance, capturing outputs at clk, and returns the failing output
// indices (empty when the die passes the pattern).
func SimulateAtClock(c *Circuit, inst *Instance, p PatternPair, clk float64) []int {
	res := tsim.Simulate(c, inst.Delays, p, tsim.AtClock(clk))
	return res.FailingOutputs(c)
}

// Compress converts a dictionary to its sparse, quantized persistent
// form; Save/LoadCompressed serialize it (see cmd/ddd-dict).
func Compress(d *Dictionary) *CompressedDictionary { return core.Compress(d) }

// LoadDictionary reads a dictionary stored by CompressedDictionary.Save
// and the input count it was built for.
func LoadDictionary(r io.Reader) (*CompressedDictionary, int, error) {
	return core.LoadCompressed(r)
}

// ComputeScoap returns SCOAP controllability/observability measures.
func ComputeScoap(c *Circuit) *Scoap { return circuit.ComputeScoap(c) }

// ArcCoverage reports which logic arcs a pattern set statically
// sensitizes — the hard ceiling on diagnosable locations.
func ArcCoverage(c *Circuit, pats []PatternPair) *CoverageResult {
	return atpg.ArcCoverage(c, pats)
}

// BuildStaticDictionary precomputes one dictionary for a global
// pattern set (the classic effect-cause flow; contrast with the
// per-case targeted patterns of DiagnosticPatterns).
func BuildStaticDictionary(cfg ExperimentConfig, maxSuspects int) (*StaticDictionary, error) {
	return eval.BuildStatic(cfg, maxSuspects)
}

// WriteVCD simulates p on inst to quiescence and dumps every gate's
// waveform as a VCD file. Waveforms are right-continuous, so
// zero-width (same-instant) toggles do not appear; see internal/tsim
// for the lower-level API.
func WriteVCD(w io.Writer, c *Circuit, inst *Instance, p PatternPair, timescale float64) error {
	res := tsim.Simulate(c, inst.Delays, p, tsim.Quiescent())
	return tsim.WriteVCD(w, c, res, timescale)
}

// AutoK chooses the answer-set size from the ranked score curve's
// largest gap (the paper's future-work item 2).
func AutoK(ranked []Ranked, method Method, maxK int) (k int, gap float64) {
	return core.AutoK(ranked, method, maxK)
}

// MergeDictionaries concatenates two dictionaries built over the same
// suspects and clk but different pattern sets (incremental
// characterization).
func MergeDictionaries(a, b *Dictionary) (*Dictionary, error) { return core.Merge(a, b) }

// ErrorFuncNames lists the names of the extension error functions
// beyond the paper's four methods (L1, chebyshev, loglik). Each is a
// Method, so every Diagnose and the service's "method" field take it.
func ErrorFuncNames() []string {
	names := make([]string, len(core.Extensions))
	for i, m := range core.Extensions {
		names[i] = m.String()
	}
	return names
}

// ScanMap relates pseudo inputs to the pseudo outputs feeding them.
type ScanMap = logicsim.ScanMap

// BuildScanMap pairs a scan-converted circuit's pseudo inputs and
// outputs, given the original primary input/output counts.
func BuildScanMap(c *Circuit, numPI, numPO int) ScanMap {
	return logicsim.BuildScanMap(c, numPI, numPO)
}

// DiagnosticPatternsLoC generates diagnostic patterns under the
// launch-on-capture (broadside) constraint instead of enhanced scan.
func DiagnosticPatternsLoC(c *Circuit, sm ScanMap, site ArcID, maxPatterns, tries int, seed uint64) []PathTestResult {
	return atpg.DiagnosticPatternsLoC(c, sm, site, maxPatterns, tries, rng.New(seed))
}

// Serving (cmd/ddd-serve): the concurrent diagnosis service answering
// HTTP/JSON requests against precomputed compressed dictionaries.
type (
	// DiagnoseRequest is the body of POST /v1/diagnose.
	DiagnoseRequest = service.DiagnoseRequest
	// DiagnoseResponse is a ranked diagnosis answer.
	DiagnoseResponse = service.DiagnoseResponse
	// RankedArc is one candidate of a DiagnoseResponse ranking.
	RankedArc = service.RankedEntry
	// ServeConfig parameterizes a DiagnosisServer (dictionary
	// directory, cache budget, worker pool, deadlines, preload).
	ServeConfig = service.Config
	// DiagnosisServer is the embeddable diagnosis service: sharded LRU
	// dictionary cache + bounded worker pool + HTTP handlers.
	DiagnosisServer = service.Server
	// ServiceStats is the /stats snapshot (cache, pool, batching and
	// per-endpoint counters).
	ServiceStats = service.Stats
)

// NewDiagnosisServer builds a diagnosis service over a directory of
// compressed dictionaries (<id>.dict, written by ddd-dict). Start it
// on an address or mount Handler() into an existing mux.
func NewDiagnosisServer(cfg ServeConfig) (*DiagnosisServer, error) {
	return service.New(cfg)
}
