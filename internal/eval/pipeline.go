package eval

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/logicsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timing"
	tengine "repro/internal/timing/engine"
)

// Pipeline is the paper's per-case evaluation chain (Section I) over
// one circuit: generate diagnostic patterns through the defect site,
// pick the cut-off period, observe the behavior matrix, prune
// suspects, build the probabilistic fault dictionary and rank. Every
// caller that diagnoses an injected defect — the Table I harness, the
// multi-defect and guardband experiments, Figure 3, ddd-diagnose,
// ddd-ablate and the examples — runs these stages, so one input gives
// one answer whichever program asks. Each stage records its wall time
// in Stages under the names atpg, clk_select, behavior_sim, suspects,
// dict_build and diagnose.
type Pipeline struct {
	C      *circuit.Circuit
	Model  *timing.Model
	Engine timing.Engine // resolved once from Cfg.Engine
	Inj    *defect.Injector
	Cfg    Config
	Stages *obs.Stages
}

// NewPipeline characterizes c under cfg.Timing (zero value =
// timing.DefaultParams()), resolves cfg.Engine and builds the defect
// injector.
func NewPipeline(c *circuit.Circuit, cfg Config) (*Pipeline, error) {
	if cfg.Timing == (timing.Params{}) {
		cfg.Timing = timing.DefaultParams()
	}
	m := timing.NewModel(c, cfg.Timing)
	eng, err := tengine.New(cfg.Engine, m)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &Pipeline{
		C:      c,
		Model:  m,
		Engine: eng,
		Inj:    defect.NewInjector(c, m.MeanCellDelay(), defect.DefaultParams()),
		Cfg:    cfg,
		Stages: obs.NewStages(),
	}, nil
}

// newNamedPipeline is NewPipeline over the synthetic circuit cfg names.
func newNamedPipeline(cfg Config) (*Pipeline, error) {
	c, err := synth.GenerateNamed(cfg.Circuit, cfg.CircuitSeed)
	if err != nil {
		return nil, err
	}
	return NewPipeline(c, cfg)
}

// Case is one injected-defect diagnosis case. NewCase fills the
// inputs; a caller may overwrite them (a fixed arc or size, several
// defects, a defect-free die) before running the stages, each of
// which records what it produced.
type Case struct {
	// Inputs.
	Index int
	Seed  uint64 // roots every per-case random stream
	Inst  *timing.Instance
	Truth defect.MultiDefect

	// Stage outputs.
	Tests    []atpg.PathTestResult // atpg: de-duplicated tests over every truth site
	Pats     []logicsim.PatternPair
	Clk      float64        // clk_select
	B        *core.Behavior // behavior_sim
	Escaped  bool           // no pattern found, or B is all-pass
	Strict   []circuit.ArcID
	Relaxed  []circuit.ArcID
	Suspects []circuit.ArcID // strict then relaxed, capped by Cfg.MaxSuspects
	Dict     *core.Dictionary
	Ranked   map[core.Method][]core.Ranked
}

// NewCase returns case i of the experiment: its seed, die and random
// single defect derive from (Cfg.Seed, i) alone, never from
// sequential state, so a case replays bit-exactly in isolation.
func (p *Pipeline) NewCase(i int) *Case {
	seed := rng.DeriveN(p.Cfg.Seed, 0xca5e, uint64(i))
	return &Case{
		Index: i,
		Seed:  seed,
		Inst:  p.Model.SampleInstanceSeeded(p.Cfg.Seed, uint64(1_000_000+i)),
		Truth: defect.MultiDefect{p.Inj.Sample(rng.New(seed))},
	}
}

// Run chains the six stages. A case with no pattern or an all-pass
// behavior matrix is an escape; one whose suspects lost every true
// arc stops before the dictionary, since diagnosis cannot succeed.
// Either way cs.Dict and cs.Ranked stay nil.
func (p *Pipeline) Run(ctx context.Context, cs *Case) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	evalCases.Inc()
	if p.Patterns(cs); len(cs.Pats) == 0 {
		return p.escape(cs)
	}
	if err := p.Clock(ctx, cs, p.Cfg.ClkQuantile); err != nil {
		return err
	}
	if p.Observe(cs); !cs.B.AnyFailure() {
		return p.escape(cs)
	}
	if p.Suspects(cs); cs.TruthInSuspects() == 0 {
		return nil
	}
	if err := p.Dictionary(ctx, cs, rng.Derive(cs.Seed, 4)); err != nil {
		return err
	}
	p.Rank(cs)
	return nil
}

func (p *Pipeline) escape(cs *Case) error {
	cs.Escaped = true
	evalEscapes.Inc()
	return nil
}

// Patterns generates diagnostic patterns through every truth site
// (paper Section H-4). Several defects split Cfg.MaxPatterns between
// their sites, at least two each; tests are de-duplicated by pattern
// pair.
func (p *Pipeline) Patterns(cs *Case) {
	stop := p.Stages.Start("atpg")
	budget := p.Cfg.MaxPatterns
	if n := len(cs.Truth); n > 1 {
		budget = max(2, budget/n)
	}
	seen := make(map[string]bool)
	for di, d := range cs.Truth {
		seed := rng.Derive(cs.Seed, 1)
		if di > 0 {
			seed = rng.Derive(seed, uint64(di))
		}
		for _, tc := range atpg.DiagnosticPatterns(p.C, p.Model.Nominal, d.Arc, budget, rng.New(seed)) {
			if k := tc.Pair.String(); !seen[k] {
				seen[k] = true
				cs.Tests = append(cs.Tests, tc)
				cs.Pats = append(cs.Pats, tc.Pair)
			}
		}
	}
	stop(int64(len(cs.Tests)))
}

// Clock sets the cut-off period to the largest q-quantile of the
// statistical timing lengths of the tested paths through the site. This
// mirrors how a failing die is characterized in practice — the tester
// shmoos the clock down to the frequency where the targeted paths are
// marginal — and puts clk where a 0.5–1 cell-delay defect on the site
// moves the pass/fail outcome. Critical probabilities of everything
// else at this clk are captured by M_crt.
func (p *Pipeline) Clock(ctx context.Context, cs *Case, q float64) error {
	stop := p.Stages.Start("clk_select")
	clk := 0.0
	for _, tc := range cs.Tests {
		tl, err := p.Engine.TimingLength(ctx, tc.Path.Arcs, p.Cfg.ClkSamples, rng.Derive(cs.Seed, 2), 0)
		if err != nil {
			return err
		}
		clk = max(clk, tl.Quantile(q))
	}
	cs.Clk = clk
	stop(int64(len(cs.Tests)))
	return nil
}

// Observe simulates the die with every truth defect at clk — the
// behavior matrix a tester records. An empty Truth observes the
// defect-free die.
func (p *Pipeline) Observe(cs *Case) {
	stop := p.Stages.Start("behavior_sim")
	cs.B = core.SimulateBehaviorMulti(p.C, cs.Inst.Delays, cs.Pats, cs.Truth, cs.Clk)
	stop(int64(len(cs.Pats)))
}

// Suspects prunes candidates by cause-effect analysis of B, listing
// the strict tier before the relaxed one. The order is part of the
// result: the Monte-Carlo build draws each suspect's defect size in
// this order (DESIGN.md §19).
func (p *Pipeline) Suspects(cs *Case) {
	stop := p.Stages.Start("suspects")
	cs.Strict, cs.Relaxed = core.SuspectArcsTiered(p.C, cs.Pats, cs.B)
	cs.Suspects = append(append([]circuit.ArcID(nil), cs.Strict...), cs.Relaxed...)
	if limit := p.Cfg.MaxSuspects; limit > 0 && len(cs.Suspects) > limit {
		cs.Suspects = capSuspects(cs.Strict, cs.Relaxed, limit, rng.New(rng.Derive(cs.Seed, 3)))
	}
	stop(int64(len(cs.Suspects)))
}

// Dictionary builds the probabilistic fault dictionary of cs.Suspects
// over cs.Pats at cs.Clk with the pipeline's engine, rooted at seed.
func (p *Pipeline) Dictionary(ctx context.Context, cs *Case, seed uint64) error {
	stop := p.Stages.Start("dict_build")
	d, err := core.BuildDictionaryCtx(ctx, p.Model, cs.Pats, cs.Suspects, core.DictConfig{
		Clk:      cs.Clk,
		Engine:   p.Engine,
		Samples:  p.Cfg.DictSamples,
		Seed:     seed,
		Workers:  p.Cfg.Workers,
		SizeDist: p.sizeDist(),
	})
	stop(int64(p.Cfg.DictSamples))
	cs.Dict = d
	return err
}

// sizeDist is the defect-size distribution the dictionary assumes:
// uniform over Cfg.AssumedSizeFactor mean cell delays when set, else
// the injector's (mean 0.75 cell delay, 3σ = 50 % of the mean).
func (p *Pipeline) sizeDist() dist.Dist {
	if f := p.Cfg.AssumedSizeFactor; f != ([2]float64{}) {
		return dist.Uniform{Lo: f[0] * p.Inj.CellDelay, Hi: f[1] * p.Inj.CellDelay}
	}
	return p.Inj.AssumedSizeDist()
}

// Rank diagnoses B against the dictionary with every method.
func (p *Pipeline) Rank(cs *Case) {
	stop := p.Stages.Start("diagnose")
	cs.Ranked = make(map[core.Method][]core.Ranked, len(core.Methods))
	for _, m := range core.Methods {
		cs.Ranked[m] = cs.Dict.Diagnose(cs.B, m)
	}
	stop(int64(len(core.Methods)))
}

// TruthInSuspects counts the truth arcs that survived pruning.
func (cs *Case) TruthInSuspects() int {
	n := 0
	for _, a := range cs.Suspects {
		if cs.Truth.Contains(a) {
			n++
		}
	}
	return n
}

// Position returns the 1-based position of arc in method m's ranking,
// or 0 when the case was not ranked or the arc is absent.
func (cs *Case) Position(m core.Method, arc circuit.ArcID) int {
	return core.Position(cs.Ranked[m], arc)
}

// ranks maps every method to the position of the first truth arc,
// leaving out methods that do not rank it.
func (cs *Case) ranks() map[core.Method]int {
	out := make(map[core.Method]int)
	for m := range cs.Ranked {
		if pos := cs.Position(m, cs.Truth[0].Arc); pos > 0 {
			out[m] = pos
		}
	}
	return out
}
