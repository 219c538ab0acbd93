package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/rng"
)

// MultiCaseResult records one multi-defect diagnosis case (the paper's
// future-work item 3: relax the single-defect assumption).
type MultiCaseResult struct {
	Instance int
	Truth    defect.MultiDefect
	Escaped  bool
	Suspects int
	// TruthsInSuspects counts injected arcs that survived pruning.
	TruthsInSuspects int
	// SingleTopKHits counts injected arcs in the single-shot AlgRev
	// top-K (K = number of injected defects × 3).
	SingleTopKHits int
	// IterativeHits counts injected arcs named by the iterative
	// peel-and-re-diagnose loop.
	IterativeHits int
	Rounds        int
}

// MultiResult aggregates a multi-defect experiment.
type MultiResult struct {
	Config   Config
	NDefects int
	Cases    []MultiCaseResult
}

// RecallSingle returns the fraction of injected defects recovered by
// the plain single-defect top-K answer.
func (r *MultiResult) RecallSingle() float64 {
	return r.recall(func(c MultiCaseResult) int { return c.SingleTopKHits })
}

// RecallIterative returns the fraction recovered by the iterative loop.
func (r *MultiResult) RecallIterative() float64 {
	return r.recall(func(c MultiCaseResult) int { return c.IterativeHits })
}

func (r *MultiResult) recall(hits func(MultiCaseResult) int) float64 {
	total, got := 0, 0
	for _, c := range r.Cases {
		total += len(c.Truth)
		got += hits(c)
	}
	if total == 0 {
		return 0
	}
	return float64(got) / float64(total)
}

// RunMultiDefect runs the multiple-defect extension experiment:
// nDefects simultaneous defects per die, patterns generated through
// every injected site (the diagnosis still must not know which sites
// those are — the dictionary ranks all suspects), a single-defect
// dictionary, and two answers per case: the single-shot top-K and the
// iterative peeling loop. Case i is harness case i with its defect
// replaced by nDefects drawn from the same stream.
func RunMultiDefect(cfg Config, nDefects int) (*MultiResult, error) {
	if nDefects < 1 {
		return nil, fmt.Errorf("eval: nDefects = %d", nDefects)
	}
	p, err := newNamedPipeline(cfg)
	if err != nil {
		return nil, err
	}
	res := &MultiResult{Config: p.Cfg, NDefects: nDefects}
	for i := 0; i < cfg.N; i++ {
		cs := p.NewCase(i)
		cs.Truth = p.Inj.SampleMulti(nDefects, rng.New(cs.Seed))
		if err := p.Run(context.Background(), cs); err != nil {
			return nil, fmt.Errorf("eval: multi case %d: %w", i, err)
		}
		res.Cases = append(res.Cases, multiResult(cs))
	}
	return res, nil
}

// multiResult scores a finished multi-defect case: the truths in the
// single-shot Alg_rev top 3·n and those the iterative loop names.
func multiResult(cs *Case) MultiCaseResult {
	out := MultiCaseResult{
		Instance:         cs.Index,
		Truth:            cs.Truth,
		Escaped:          cs.Escaped,
		Suspects:         len(cs.Suspects),
		TruthsInSuspects: cs.TruthInSuspects(),
	}
	if cs.Dict == nil {
		return out
	}
	n := len(cs.Truth)
	ranked := cs.Ranked[core.AlgRev]
	for _, rk := range ranked[:min(3*n, len(ranked))] {
		if cs.Truth.Contains(rk.Arc) {
			out.SingleTopKHits++
		}
	}
	rounds := cs.Dict.DiagnoseIterative(cs.B, core.AlgRev, n+1, 0.25)
	out.Rounds = len(rounds)
	out.IterativeHits = core.MultiHits(rounds, cs.Truth)
	return out
}
