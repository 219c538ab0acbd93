// Package eval is the experiment harness: it reproduces the paper's
// evaluation methodology (Section I) — statistical defect injection,
// statistical delay fault simulation, diagnosis with every error
// function, and success-rate measurement versus K — and regenerates
// Table I and the Figure 1/2/3 scenario data.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/logicsim"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	"repro/internal/tsim"
)

// Config parameterizes one circuit's diagnosis-accuracy experiment.
type Config struct {
	Circuit     string  // synth profile name (s1196 … or mini/small/medium)
	CircuitSeed uint64  // seed for the synthetic netlist
	Seed        uint64  // root seed for instances, defects, patterns
	N           int     // failing instances to diagnose (paper: 20)
	MaxPatterns int     // diagnostic patterns per case (paper: < 20)
	DictSamples int     // Monte-Carlo samples for the fault dictionary
	ClkSamples  int     // Monte-Carlo samples for cut-off selection
	ClkQuantile float64 // quantile of the longest targeted path's timing length (e.g. 0.90)
	Workers     int     `json:"-"` // dictionary parallelism (0 = NumCPU)
	MaxSuspects int     // cap on the suspect set (0 = unlimited)
	// Engine names the statistical timing backend for cut-off
	// selection and dictionary construction ("" or "mc" for
	// Monte-Carlo, "analytic" for closed-form SSTA); NewPipeline
	// resolves it once through engine.New. Defect injection
	// and behavior simulation always use timed simulation — the ground
	// truth is a die, not a model.
	Engine string
	// Timing overrides the statistical cell library (zero value =
	// timing.DefaultParams()).
	Timing timing.Params
	// AssumedSizeFactor, when non-zero, makes the dictionary assume a
	// uniform defect size over [lo, hi] mean cell delays instead of the
	// injector's AssumedSizeDist (mean 0.75 cell delay, 3σ = 50 % of
	// the mean) — the knob of the size-assumption sensitivity
	// experiment.
	AssumedSizeFactor [2]float64

	// CheckpointPath, when set, journals every completed case to this
	// file (crash-safe: temp file + fsync + rename per case). With
	// Resume also set, cases already in a matching journal are loaded
	// instead of recomputed — bit-exact, because all per-case
	// randomness derives from (Seed, case index). A journal written
	// under a different configuration is an error under Resume and is
	// overwritten without it. None of these knobs affect results.
	CheckpointPath string `json:"-"`
	Resume         bool   `json:"-"`
}

// DefaultConfig returns the experiment parameters used for Table I.
//
// The timing regime is calibrated to the paper's era: variation is
// dominated by cell-local randomness (σ_l = 8 %) with a small
// correlated inter-die component (σ_g = 2 %). Local variation averages
// out along a path (σ_path ≈ √n·σ_l·d_cell), so a defect of 0.5–1.0
// cell delays is comparable to or larger than the path-delay spread —
// the regime in which small-delay-defect diagnosis is meaningful. A
// strongly correlated model (σ_g ≈ 10 %) would make per-die path
// delays swing by several cell delays and bury the defect; the
// ablation bench quantifies exactly that.
func DefaultConfig(circuitName string) Config {
	tp := timing.DefaultParams()
	tp.SigmaGlobal = 0.02
	tp.SigmaLocal = 0.08
	return Config{
		Circuit:     circuitName,
		CircuitSeed: 2003, // year of the paper; fixed across experiments
		Seed:        1,
		N:           20,
		MaxPatterns: 12,
		DictSamples: 96,
		ClkSamples:  200,
		ClkQuantile: 0.90,
		Timing:      tp,
	}
}

// CaseResult records one injected-defect diagnosis case. It is also
// the checkpoint journal's serialized form: Rank encodes with method
// names as keys, and encoding/json round-trips every float64 exactly.
type CaseResult struct {
	Instance        int           `json:"instance"`
	Defect          defect.Defect `json:"defect"`
	Clk             float64       `json:"clk"`
	Patterns        int           `json:"patterns"`
	Escaped         bool          `json:"escaped,omitempty"` // behavior matrix all-pass: the defect was not observed
	Suspects        int           `json:"suspects"`
	TruthInSuspects bool          `json:"truth_in_suspects,omitempty"`
	// Rank[m] is the 1-based position of the true arc in method m's
	// ranking (0 when the case escaped or the truth was pruned).
	Rank map[core.Method]int `json:"rank"`
	// AutoK is the automatically selected answer-set size for AlgRev
	// (future-work item 2), and AutoKGap the score gap behind it.
	AutoK    int     `json:"auto_k,omitempty"`
	AutoKGap float64 `json:"auto_k_gap,omitempty"`
}

// result keeps the case's outcome.
func (cs *Case) result() CaseResult {
	out := CaseResult{
		Instance:        cs.Index,
		Defect:          cs.Truth[0],
		Clk:             cs.Clk,
		Patterns:        len(cs.Pats),
		Escaped:         cs.Escaped,
		Suspects:        len(cs.Suspects),
		TruthInSuspects: cs.TruthInSuspects() > 0,
		Rank:            cs.ranks(),
	}
	if cs.Ranked != nil {
		out.AutoK, out.AutoKGap = core.AutoK(cs.Ranked[core.AlgRev], core.AlgRev, 16)
	}
	return out
}

// AutoKSuccessRate returns the fraction of cases where the truth falls
// within the automatically chosen K under AlgRev — the evaluation of
// the paper's "select K automatically" future-work item.
func (r *CircuitResult) AutoKSuccessRate() float64 {
	return fraction(len(r.Cases), func(i int) bool {
		cs := r.Cases[i]
		return within(cs.Rank[core.AlgRev], cs.AutoK)
	})
}

// MeanAutoK returns the average automatically chosen K over diagnosed
// cases, or NaN when no case was diagnosed — matching the NaN
// semantics of SuccessRate/AutoKSuccessRate for empty denominators,
// so "no data" never renders as a plausible-looking 0.
func (r *CircuitResult) MeanAutoK() float64 {
	sum, n := 0, 0
	for _, cs := range r.Cases {
		if cs.AutoK > 0 {
			sum += cs.AutoK
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}

// CircuitResult aggregates all cases for one circuit.
type CircuitResult struct {
	Config Config
	Stats  circuit.Stats
	Cases  []CaseResult
	// Timings accumulates per-stage wall time across the run's cases
	// (pattern generation, clock selection, behavior simulation,
	// suspect pruning, dictionary build, diagnosis) — the data behind
	// `ddd-table1 --timings`. Wall time is measurement, not result: it
	// never feeds a diagnosis number.
	Timings *obs.Stages
}

// SuccessRate returns the fraction of cases whose true defect arc is
// ranked within the first k candidates by method m. Escaped and pruned
// cases count as misses, matching the paper's accuracy measurement.
func (r *CircuitResult) SuccessRate(m core.Method, k int) float64 {
	return fraction(len(r.Cases), func(i int) bool { return within(r.Cases[i].Rank[m], k) })
}

// EscapeRate returns the fraction of cases whose defect produced no
// failing output at the cut-off period.
func (r *CircuitResult) EscapeRate() float64 {
	return fraction(len(r.Cases), func(i int) bool { return r.Cases[i].Escaped })
}

// fraction returns the share of n cases for which hit holds, NaN when
// there are none: "no data" never renders as a plausible-looking 0.
func fraction(n int, hit func(i int) bool) float64 {
	if n == 0 {
		return math.NaN()
	}
	hits := 0
	for i := 0; i < n; i++ {
		if hit(i) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// within reports whether a 1-based rank (0 = not ranked) is at most k.
func within(pos, k int) bool { return pos >= 1 && pos <= k }

// MeanSuspects returns the average suspect-set size over non-escaped
// cases (the paper reports 100–600 for the ISCAS circuits), or NaN
// when every case escaped.
func (r *CircuitResult) MeanSuspects() float64 {
	sum, n := 0, 0
	for _, cs := range r.Cases {
		if !cs.Escaped {
			sum += cs.Suspects
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}

// RunCircuit executes the full Section-I experiment for one circuit:
// for each of N instances, draw a circuit instance and a random defect,
// generate diagnostic patterns through the (known, as in the paper's
// methodology) fault site, pick the cut-off period from the fault-free
// pattern response distribution, observe the behavior matrix, prune
// suspects, build the probabilistic fault dictionary, and diagnose
// with every method.
func RunCircuit(cfg Config) (*CircuitResult, error) {
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	return RunOnCircuit(c, cfg)
}

// RunOnCircuit is RunCircuit over an already-built circuit (e.g. a
// parsed real ISCAS'89 netlist).
func RunOnCircuit(c *circuit.Circuit, cfg Config) (*CircuitResult, error) {
	return RunOnCircuitCtx(context.Background(), c, cfg)
}

// RunOnCircuitCtx is RunOnCircuit with cooperative cancellation and
// checkpointing. ctx is checked between cases (and threaded into the
// dictionary build, the dominant cost, which checks it per sample), so
// a caller bounds a run by passing a deadline. When
// cfg.CheckpointPath is set, completed cases are journaled as the run
// goes and — under cfg.Resume — cases already journaled are loaded
// instead of recomputed, bit-exactly (per-case RNG streams derive
// from the case index, never from sequential state).
func RunOnCircuitCtx(ctx context.Context, c *circuit.Circuit, cfg Config) (*CircuitResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("eval: N = %d", cfg.N)
	}
	p, err := NewPipeline(c, cfg)
	if err != nil {
		return nil, err
	}
	var ck *Checkpoint
	if cfg.CheckpointPath != "" {
		ck, err = LoadCheckpoint(cfg.CheckpointPath, p.Cfg, cfg.Resume)
		if err != nil {
			return nil, err
		}
	}
	res := &CircuitResult{Config: p.Cfg, Stats: c.Stats(), Timings: p.Stages}

	for i := 0; i < cfg.N; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ck != nil {
			if cs, ok := ck.Get(i); ok {
				res.Cases = append(res.Cases, cs)
				continue
			}
		}
		run := p.NewCase(i)
		if err := p.Run(ctx, run); err != nil {
			return nil, fmt.Errorf("eval: case %d: %w", i, err)
		}
		cs := run.result()
		if ck != nil {
			if err := ck.Record(i, cs); err != nil {
				return nil, err
			}
		}
		res.Cases = append(res.Cases, cs)
	}
	return res, nil
}

// capSuspects bounds the suspect set for tractability: the strict
// (statically sensitized) tier is kept whole — it carries the
// strongest cause-effect evidence — and remaining slots are filled by
// a deterministic uniform subsample of the relaxed (hazard-cone)
// tier. The true arc's survival in the relaxed tier is left to
// chance, exactly as a real size cap would behave.
func capSuspects(strict, relaxed []circuit.ArcID, max int, r interface{ IntN(int) int }) []circuit.ArcID {
	out := append([]circuit.ArcID(nil), strict...)
	if len(out) > max {
		out = out[:max]
	}
	room := max - len(out)
	if room > 0 && len(relaxed) > 0 {
		pool := append([]circuit.ArcID(nil), relaxed...)
		for i := len(pool) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			pool[i], pool[j] = pool[j], pool[i]
		}
		if room > len(pool) {
			room = len(pool)
		}
		out = append(out, pool[:room]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PatternResponseQuantile estimates the q-quantile of the fault-free
// settling time of a pattern set: per instance, the maximum over
// patterns and outputs of the last output transition time. This is the
// dynamic-timing analogue of picking clk from Δ(Induced(Path_TP)).
func PatternResponseQuantile(m *timing.Model, pats []logicsim.PatternPair, q float64, samples int, seed uint64, workers int) float64 {
	xs := make([]float64, samples)
	// One engine, delay buffer and reseedable stream per worker: sample
	// s is drawn from the stream SampleInstanceSeeded(seed, s) uses.
	type worker struct {
		eng    *tsim.Engine
		delays []float64
		stream *rng.Stream
	}
	ws := make([]*worker, par.Workers(workers, samples))
	_, _ = par.ForWorkerCtx(context.Background(), samples, workers, func(w, s int) {
		wk := ws[w]
		if wk == nil {
			wk = &worker{eng: tsim.NewEngine(m.C), delays: make([]float64, len(m.Nominal)), stream: rng.NewStream()}
			ws[w] = wk
		}
		m.SampleDelaysInto(wk.delays, wk.stream.ResetDerived(seed, uint64(s)))
		worst := 0.0
		for _, p := range pats {
			res := wk.eng.Run(wk.delays, p, tsim.Quiescent())
			for _, o := range m.C.Outputs {
				if wf := res.Waveform(o); len(wf) > 0 {
					worst = max(worst, wf[len(wf)-1].T)
				}
			}
		}
		xs[s] = worst
	})
	return dist.NewEmpirical(xs).Quantile(q)
}
