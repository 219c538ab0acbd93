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
	// ID optionally names the dictionary (a file stem, a shard id).
	// Merge quotes it in error messages so a failed combine over a
	// directory of shards names the offending inputs.
	ID string

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
// pattern's response).
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

	type accum struct {
		m []int32 // nOut*nPat
		e []int32 // nSus*nOut*nPat
	}
	// dictWorker is one worker's reusable scratch: the simulation
	// engine, the instance delay buffer, defect sizes, reseedable RNG
	// streams and the stage ledger — allocated once per worker, so the
	// per-sample loop is allocation-free in steady state.
	type dictWorker struct {
		acc      accum
		eng      *tsim.Engine
		opts     tsim.Options // capture at cfg.Clk under the sample's windows
		baseFail []bool
		delays   []float64
		sizes    []float64
		stream   *rng.Stream
		st       dictStages
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
				eng:      tsim.NewEngine(c),
				opts:     tsim.Options{Horizon: cfg.Clk, DefectArc: tsim.NoDefect, Window: tsim.NewWindow(c)},
				baseFail: make([]bool, nOut),
				delays:   make([]float64, len(c.Arcs)),
				sizes:    make([]float64, nSus),
				stream:   rng.NewStream(),
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
				wk.baseFail[oi] = base.Capture[oi] != base.Final[o]
				if wk.baseFail[oi] {
					acc.m[oi*nPat+j]++
				}
			}
			t2 := time.Now()
			wk.st.baseline += t2.Sub(t1)
			for i, arc := range suspects {
				row := (i*nOut)*nPat + j
				if !base.Transitioned(c.Arcs[arc].From) {
					// The defect arc sees no transition a capture
					// can observe: E equals the baseline for this
					// pattern.
					for oi := 0; oi < nOut; oi++ {
						if wk.baseFail[oi] {
							acc.e[row+oi*nPat]++
						}
					}
					wk.st.skipped++
					continue
				}
				capture := wk.eng.RunDefectDiff(wk.delays, base, arc, wk.sizes[i], cfg.Clk)
				wk.st.simulated++
				for oi, o := range c.Outputs {
					if capture[oi] != base.Final[o] {
						acc.e[row+oi*nPat]++
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
	for _, wk := range ws {
		if wk == nil {
			continue // worker never claimed a sample
		}
		for k, v := range wk.acc.m {
			d.M.Data[k] += float64(v)
		}
	}
	d.M.Scale(inv)
	for i := 0; i < nSus; i++ {
		e := NewMatrix(nOut, nPat)
		off := i * nOut * nPat
		for _, wk := range ws {
			if wk == nil {
				continue
			}
			for k := 0; k < nOut*nPat; k++ {
				e.Data[k] += float64(wk.acc.e[off+k])
			}
		}
		e.Scale(inv)
		d.E[i] = e
		d.S[i] = e.Sub(d.M)
	}
	dictStageAccumulate.Add(time.Since(tAcc).Seconds())
	return d, nil
}

// Merge combines two dictionaries built over the SAME suspects and
// clk but different pattern sets into one whose pattern axis is the
// concatenation — incremental characterization: add patterns later
// without re-simulating the old ones. Matrices are concatenated
// column-wise.
func Merge(a, b *Dictionary) (*Dictionary, error) {
	ids := func() string { return fmt.Sprintf("%s + %s", dictID(a), dictID(b)) }
	if a.C != b.C {
		return nil, fmt.Errorf("core: Merge %s: different circuits", ids())
	}
	if a.Clk != b.Clk { //lint:ignore floateq merged dictionaries must share a bit-identical clk; any drift means different test conditions
		return nil, fmt.Errorf("core: Merge %s: different clk (%v vs %v)", ids(), a.Clk, b.Clk)
	}
	if len(a.Suspects) != len(b.Suspects) {
		return nil, fmt.Errorf("core: Merge %s: different suspect counts (%d vs %d)",
			ids(), len(a.Suspects), len(b.Suspects))
	}
	for i := range a.Suspects {
		if a.Suspects[i] != b.Suspects[i] {
			return nil, fmt.Errorf("core: Merge %s: different suspects at %d (arc %d vs arc %d)",
				ids(), i, a.Suspects[i], b.Suspects[i])
		}
	}
	out := &Dictionary{
		C:        a.C,
		ID:       a.ID,
		Patterns: append(append([]logicsim.PatternPair(nil), a.Patterns...), b.Patterns...),
		Suspects: append([]circuit.ArcID(nil), a.Suspects...),
		Clk:      a.Clk,
		M:        concatCols(a.M, b.M),
		E:        make([]*Matrix, len(a.E)),
		S:        make([]*Matrix, len(a.S)),
	}
	for i := range a.E {
		out.E[i] = concatCols(a.E[i], b.E[i])
		out.S[i] = concatCols(a.S[i], b.S[i])
	}
	return out, nil
}

// dictID names a dictionary for error messages.
func dictID(d *Dictionary) string {
	if d.ID == "" {
		return "<unnamed>"
	}
	return d.ID
}

// concatCols joins two matrices with equal row counts column-wise.
func concatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("core: concatCols row mismatch")
	}
	out := NewMatrix(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*out.Cols+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	return out
}

// SimulateBehavior produces the behavior matrix B of one failing die:
// the instance's delays plus the injected defect, captured at clk for
// every pattern (Section H-3's defect injection and simulation). It is
// SimulateBehaviorMulti over a one-element defect set — bit-identical,
// since both add the defect size to the arc delay before simulating —
// and an arc outside the circuit injects nothing.
//
// The word-parallel cone prescreen (behavior_screen.go) first proves,
// 64 patterns at a time, which columns of B are necessarily all-zero;
// only the remaining patterns pay for a tsim run. The
// un-screened loop survives in the tests as simulateBehaviorScalar, the
// bit-exact oracle the differential tests pin this path against.
func SimulateBehavior(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, defectArc circuit.ArcID, defectSize, clk float64) *Behavior {
	var md defect.MultiDefect
	if defectArc >= 0 && int(defectArc) < len(c.Arcs) {
		md = defect.MultiDefect{{Arc: defectArc, Size: defectSize}}
	}
	return SimulateBehaviorMulti(c, delays, patterns, md, clk)
}
