package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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

// Dictionary is the probabilistic fault dictionary: the defect-free
// critical probabilities M_crt and, for every suspect arc, its E_crt,
// each an outputs × patterns matrix, row-major with the pattern
// innermost. A defect leaves almost every cell of E at M's value, so M
// is dense and E lists only the cells where it differs from M. The
// signatures S_crt = max(E_crt − M_crt, 0) (Definition E.1) are
// derived once, at construction, into signature classes.
type Dictionary struct {
	C          *circuit.Circuit
	Patterns   []logicsim.PatternPair
	Suspects   []circuit.ArcID // fixed at construction: the ranking walks them in an arc order derived once
	Clk        float64
	Rows, Cols int // |O| outputs × |TP| patterns

	M   []float64      // M_crt: M[i*Cols + j] for output i, pattern j
	E   []engine.ECell // E_crt where it differs from M, ascending K = si*Rows*Cols + k
	sig sigClasses
}

// NewDictionary returns the dictionary of the rows × cols matrix m and
// the E cells e (in ascending K; it reuses e's array). It keeps the
// cells whose E differs from M's bits and classes the suspects by their
// nonzero signature entries S = max(E − M, 0), which only a kept cell
// can carry; E below M (a defect turned a failing capture into a pass)
// clamps to 0.
func NewDictionary(suspects []circuit.ArcID, rows, cols int, m []float64, e []engine.ECell) *Dictionary {
	d := &Dictionary{Suspects: suspects, Rows: rows, Cols: cols, M: m, E: e[:0]}
	cb := newClassBuilder(rows, cols, suspects, len(e))
	es := make([]sigEntry, 0, len(m))
	for si, a := 0, 0; si < len(suspects); si++ {
		es = es[:0]
		for ; a < len(e) && e[a].K < (si+1)*len(m); a++ {
			c, k := e[a], e[a].K-si*len(m)
			if math.Float64bits(c.E) == math.Float64bits(m[k]) {
				continue
			}
			d.E = append(d.E, c)
			if s := c.E - m[k]; s > 0 {
				es = append(es, sigEntry{i: int32(k / cols), j: int32(k % cols), s: s})
			}
		}
		slices.SortFunc(es, func(a, b sigEntry) int { return cmp.Or(cmp.Compare(a.j, b.j), cmp.Compare(a.i, b.i)) })
		cb.sc.classOf[si] = cb.add(es)
	}
	d.sig = cb.sc
	return d
}

// BuildDictionary estimates M_crt and every suspect's E_crt by
// statistical dynamic timing simulation (Section H-2): the same
// Monte-Carlo instance samples are used for the defect-free and every
// defective hypothesis (common random numbers), so the signature
// S_crt = max(E_crt − M_crt, 0) has low variance. E can fall below M:
// a defect may also turn a failing capture into a pass, and signature
// clamps those entries at zero. Per
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

	// mCount holds the defect-free failures per (output, pattern),
	// summed over every sample by all workers at once: integer adds
	// commute, so the totals do not depend on scheduling.
	mCount := make([]atomic.Int32, nOut*nPat)
	// dictWorker is one worker's reusable scratch: the simulation
	// engine, the instance delay buffer, defect sizes, reseedable RNG
	// streams and the stage ledger — allocated once per worker, so the
	// per-sample loop is allocation-free in steady state — and its flip
	// events K<<1 | up: cell K's capture (engine.ECell's K) turned from
	// passing to failing (up = 1) or back (up = 0) in one sample.
	type dictWorker struct {
		eng    *tsim.Engine
		opts   tsim.Options // capture at cfg.Clk under the sample's windows
		delays []float64
		sizes  []float64
		stream *rng.Stream
		flips  []uint64
		st     dictStages
	}
	ws := make([]*dictWorker, workers)

	_, err := par.ForWorkerCtx(ctx, cfg.Samples, cfg.Workers, func(w, s int) {
		wk := ws[w]
		if wk == nil {
			wk = &dictWorker{
				eng:    tsim.NewEngine(c),
				opts:   tsim.Options{Horizon: cfg.Clk, DefectArc: tsim.NoDefect, Window: tsim.NewWindow(c)},
				delays: make([]float64, len(c.Arcs)),
				sizes:  make([]float64, nSus),
				stream: rng.NewStream(),
			}
			ws[w] = wk
		}
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
					mCount[oi*nPat+j].Add(1)
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
						wk.flips = append(wk.flips, uint64(row+oi*nPat)<<1|1) // a passing capture now fails
					default:
						wk.flips = append(wk.flips, uint64(row+oi*nPat)<<1) // a failing capture now passes
					}
				}
			}
			t1 = time.Now()
			wk.st.defect += t1.Sub(t2)
		}
	})
	var flips []uint64
	for _, wk := range ws {
		if wk != nil {
			wk.st.record()
			flips = append(flips, wk.flips...)
		}
	}
	if err != nil {
		return nil, err
	}
	tAcc := time.Now()

	// One sort merges the workers' events; each cell's sum is exact.
	slices.Sort(flips)
	inv := 1.0 / float64(cfg.Samples)
	mCrt := make([]float64, nOut*nPat)
	for k := range mCount {
		mCrt[k] = float64(mCount[k].Load()) * inv
	}
	var cells []engine.ECell
	for a := 0; a < len(flips); {
		key, delta := flips[a]>>1, int32(0)
		for ; a < len(flips) && flips[a]>>1 == key; a++ {
			delta += int32(flips[a]&1)*2 - 1
		}
		k := int(key) % len(mCrt) // a net-zero cell equals M, which NewDictionary drops
		cells = append(cells, engine.ECell{K: int(key), E: float64(mCount[k].Load()+delta) * inv})
	}
	d := NewDictionary(suspects, nOut, nPat, mCrt, cells)
	d.C, d.Patterns, d.Clk = c, patterns, cfg.Clk
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
