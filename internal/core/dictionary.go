package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/logicsim"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/timing/engine"
	"repro/internal/tsim"
)

// sizeStream separates the defect-size random stream from the
// instance-sampling stream rooted at the same seed.
const sizeStream = 0x51ce

// DictConfig configures probabilistic fault dictionary construction.
type DictConfig struct {
	// Clk is the cut-off period against which critical probabilities
	// are defined (Definition D.6).
	Clk float64
	// Engine is the resolved timing backend (engine.New owns the
	// names): an *engine.Analytic selects the closed-form SSTA build
	// (see engine.Analytic.Signatures for its approximations); nil or
	// any other engine selects the Monte-Carlo build.
	Engine timing.Engine
	// Samples is the number of Monte-Carlo circuit instances; the
	// analytic engine ignores it.
	Samples int
	// Seed roots all randomness (instances and candidate defect sizes).
	Seed uint64
	// Workers bounds the parallelism (0 = NumCPU).
	Workers int
	// SizeDist is the assumed candidate-defect size distribution δ.
	SizeDist dist.Dist
}

// Dictionary is the probabilistic fault dictionary: for every suspect
// arc, the signature probability matrix S_crt against which observed
// behavior is matched.
type Dictionary struct {
	C        *circuit.Circuit
	Patterns []logicsim.PatternPair
	Suspects []circuit.ArcID
	Clk      float64

	M *Matrix   // M_crt: defect-free critical probabilities
	E []*Matrix // E_crt per suspect
	S []*Matrix // S_crt = E_crt − M_crt per suspect
}

// BuildDictionary estimates M_crt and every suspect's E_crt by
// statistical dynamic timing simulation (Section H-2): the same
// Monte-Carlo instance samples are used for the defect-free and every
// defective hypothesis (common random numbers), so the signature
// S_crt = E_crt − M_crt is nonnegative and has low variance. Per
// sample and suspect a defect size is drawn from cfg.SizeDist; the
// defect is re-simulated against the sample's baseline run by
// re-evaluating only the gates whose waveform it changes
// (tsim.RunDefectDiff), and skipped entirely when the suspect arc's
// driver is quiet under a pattern (the defect cannot change that
// pattern's response). Only the captures a defect flips are counted:
// on common samples a suspect's failure count is M's plus the flips
// to failing minus the flips to passing, so E = (M count + flips) /
// Samples exactly (DESIGN.md §20).
//
// Every run of a sample is confined to the sample's observation
// windows (tsim.Window, Set once per sample and timed with the
// sampling): a gate is simulated only up to the last instant at which
// a capture at clk can see it, and "quiet" and "changed" are read
// inside its window. The captures, and so the dictionary, are those of
// unconfined runs bit for bit.
//
// Each worker checks ctx between Monte-Carlo samples (a sample is a
// full dynamic timing pass over every pattern and suspect, so the
// check granularity is already coarse work) and stops claiming more
// once ctx is done. A cancelled build returns (nil, ctx.Err()): a
// dictionary averaged over fewer samples than cfg.Samples would have
// silently inflated variance, so no partial dictionary is ever
// returned.
func BuildDictionary(ctx context.Context, m *timing.Model, patterns []logicsim.PatternPair, suspects []circuit.ArcID, cfg DictConfig) (*Dictionary, error) {
	c := m.C
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: no patterns")
	}
	if len(suspects) == 0 {
		return nil, fmt.Errorf("core: no suspects")
	}
	if cfg.SizeDist == nil {
		return nil, fmt.Errorf("core: SizeDist is required")
	}
	for _, p := range patterns {
		if err := tsim.CheckPair(c, p); err != nil {
			return nil, err
		}
	}
	if an, ok := cfg.Engine.(*engine.Analytic); ok {
		return buildDictionaryAnalytic(ctx, an, m, patterns, suspects, cfg)
	}
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("core: Samples = %d", cfg.Samples)
	}
	start := time.Now()
	defer func() {
		dictBuildSeconds.Add(time.Since(start).Seconds())
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dictBuilds.Inc()
	dictBuildSamples.Add(float64(cfg.Samples))
	workers := par.Workers(cfg.Workers, cfg.Samples)

	nOut, nPat, nSus := len(c.Outputs), len(patterns), len(suspects)

	// Settled gate states depend only on the pattern, never on the
	// sampled delays — evaluate each pattern's pair once up front
	// instead of twice per (sample, pattern) inside the workers.
	patInit := make([][]bool, nPat)
	patFinal := make([][]bool, nPat)
	for j, pat := range patterns {
		patInit[j] = logicsim.Eval(c, pat.V1)
		patFinal[j] = logicsim.Eval(c, pat.V2)
	}

	// accum is one worker's integer counts: m the defect-free failures
	// per (output, pattern), e each suspect's flips against them per
	// (suspect, output, pattern).
	type accum struct {
		m []int32 // nOut*nPat
		e []int32 // nSus*nOut*nPat
	}
	// dictWorker is one worker's reusable scratch: the simulation
	// engine, the instance delay buffer, defect sizes, reseedable RNG
	// streams and the stage ledger — allocated once per worker, so the
	// per-sample loop is allocation-free in steady state.
	type dictWorker struct {
		acc    accum
		eng    *tsim.Engine
		opts   tsim.Options // capture at cfg.Clk under the sample's windows
		delays []float64
		sizes  []float64
		stream *rng.Stream
		st     dictStages
	}
	ws := make([]*dictWorker, workers)

	_, err := par.ForWorkerCtx(ctx, cfg.Samples, cfg.Workers, func(w, s int) {
		wk := ws[w]
		if wk == nil {
			wk = &dictWorker{
				acc: accum{
					m: make([]int32, nOut*nPat),
					e: make([]int32, nSus*nOut*nPat),
				},
				eng:    tsim.NewEngine(c),
				opts:   tsim.Options{Horizon: cfg.Clk, DefectArc: tsim.NoDefect, Window: tsim.NewWindow(c)},
				delays: make([]float64, len(c.Arcs)),
				sizes:  make([]float64, nSus),
				stream: rng.NewStream(),
			}
			ws[w] = wk
		}
		acc := &wk.acc
		t0 := time.Now()
		m.SampleDelaysInto(wk.delays, wk.stream.ResetDerived(cfg.Seed, uint64(s)))
		// One defect size per (sample, suspect): a die has a single
		// defect of one size.
		szRng := wk.stream.Reset(rng.DeriveN(cfg.Seed, sizeStream, uint64(s)))
		for i := range wk.sizes {
			wk.sizes[i] = cfg.SizeDist.Sample(szRng)
		}
		wk.opts.Window.Set(wk.delays, cfg.Clk)
		t1 := time.Now()
		wk.st.sample += t1.Sub(t0)
		for j, pat := range patterns {
			base := wk.eng.RunSettled(wk.delays, pat, wk.opts, patInit[j], patFinal[j])
			for oi, o := range c.Outputs {
				if base.Capture[oi] != base.Final[o] {
					acc.m[oi*nPat+j]++
				}
			}
			t2 := time.Now()
			wk.st.baseline += t2.Sub(t1)
			for i, arc := range suspects {
				if !base.Transitioned(c.Arcs[arc].From) {
					// The defect arc sees no transition a capture
					// can observe: E equals the baseline for this
					// pattern.
					wk.st.skipped++
					continue
				}
				wk.st.simulated++
				row := (i*nOut)*nPat + j
				for _, oi := range wk.eng.RunDefectDiff(wk.delays, base, arc, wk.sizes[i], cfg.Clk) {
					switch capture := wk.eng.DefectCapture(base, oi); {
					case capture == base.Capture[oi]:
					case capture != base.Final[c.Outputs[oi]]:
						acc.e[row+oi*nPat]++ // a passing capture now fails
					default:
						acc.e[row+oi*nPat]-- // a failing capture now passes
					}
				}
			}
			t1 = time.Now()
			wk.st.defect += t1.Sub(t2)
		}
	})
	for _, wk := range ws {
		if wk != nil {
			wk.st.record()
		}
	}
	if err != nil {
		return nil, err
	}
	tAcc := time.Now()

	// Fold every worker's counts into the first one's: integer sums
	// are exact, so the fold order cannot change a bit.
	var sum *accum
	for _, wk := range ws {
		switch {
		case wk == nil: // worker never claimed a sample
		case sum == nil:
			sum = &wk.acc
		default:
			for k, v := range wk.acc.m {
				sum.m[k] += v
			}
			for k, v := range wk.acc.e {
				sum.e[k] += v
			}
		}
	}
	d := &Dictionary{
		C:        c,
		Patterns: patterns,
		Suspects: suspects,
		Clk:      cfg.Clk,
		M:        NewMatrix(nOut, nPat),
		E:        make([]*Matrix, nSus),
		S:        make([]*Matrix, nSus),
	}
	inv := 1.0 / float64(cfg.Samples)
	for k, v := range sum.m {
		d.M.Data[k] = float64(v) * inv
	}
	for i := range suspects {
		e := NewMatrix(nOut, nPat)
		delta := sum.e[i*nOut*nPat:]
		for k, v := range sum.m {
			e.Data[k] = float64(v+delta[k]) * inv
		}
		d.E[i] = e
		d.S[i] = e.Sub(d.M)
	}
	dictStageAccumulate.Add(time.Since(tAcc).Seconds())
	return d, nil
}

// SimulateBehavior produces the behavior matrix B of one failing die:
// the instance's delays plus the injected defect, captured at clk for
// every pattern (Section H-3's defect injection and simulation). It is
// SimulateBehaviorMulti over a one-element defect set — bit-identical,
// since both add the defect size to the arc delay before simulating —
// and an arc outside the circuit injects nothing.
func SimulateBehavior(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, defectArc circuit.ArcID, defectSize, clk float64) *Behavior {
	var md defect.MultiDefect
	if defectArc >= 0 && int(defectArc) < len(c.Arcs) {
		md = defect.MultiDefect{{Arc: defectArc, Size: defectSize}}
	}
	return SimulateBehaviorMulti(c, delays, patterns, md, clk)
}
