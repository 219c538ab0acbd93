package engine

import (
	"context"
	"math"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/timing"
)

// Analytic is the closed-form SSTA engine: arrival times propagate
// through the circuit as first-order canonical normals under Clark's
// moment-matching max operator, with the correlation between
// reconvergent paths tracked through each arrival's sensitivity to the
// model's shared global factor. It answers in microseconds to
// milliseconds where the Monte-Carlo engine needs seconds, at the cost
// of documented approximations (DESIGN.md §14):
//
//   - Clark's max is exact in its first two moments but renormalizes
//     the result to a Gaussian, so skew introduced by near-ties is
//     dropped before the next level consumes it.
//   - Local (per-arc) variation accumulated along two reconvergent
//     paths is treated as independent at the merge point; only the
//     global factor's contribution to their covariance is kept. The
//     property tests measure the residual error on reconvergent cones.
//   - The sampler's max(ε, ·) truncation of the delay scale is
//     neglected: at the library's σ ≈ 11 % the truncation point lies
//     beyond 8σ.
//
// The (nSamples, seed, workers) engine arguments are ignored — every
// answer is a deterministic closed form.
type Analytic struct {
	m *timing.Model
	// meanCell caches m.MeanCellDelay() for the waveform dilation model
	// (see dilationVar), which is evaluated per recorded transition.
	meanCell float64
}

// NewAnalytic returns the analytic engine over m.
func NewAnalytic(m *timing.Model) *Analytic {
	return &Analytic{m: m, meanCell: m.MeanCellDelay()}
}

// Name returns "analytic".
func (e *Analytic) Name() string { return "analytic" }

// cnorm is an arrival time in first-order canonical form,
//
//	A = mu + g·G + sqrt(lv)·Z_A,
//
// where G ~ N(0,1) is the model's shared global factor and Z_A ~
// N(0,1) is an independent aggregate of the local variation collected
// along A's dominant paths. Keeping the global sensitivity g separate
// from the pooled local variance lv is what lets the max operator
// compute the covariance of two arrivals — paths through common
// process conditions correlate via g·g' — instead of assuming one
// circuit-wide correlation for every pair.
type cnorm struct {
	mu float64 // mean
	g  float64 // sensitivity to the global factor
	lv float64 // pooled local (independent) variance
}

// variance returns the total variance g² + lv.
func (a cnorm) variance() float64 { return a.g*a.g + a.lv }

// normal collapses the canonical form to its marginal distribution.
func (a cnorm) normal() dist.Normal {
	return dist.Normal{Mu: a.mu, Sigma: math.Sqrt(a.variance())}
}

// arcC returns the canonical delay of an arc with the given nominal:
// d = nom·(1 + σ_g·G + σ_l·L) has mean nom, global sensitivity nom·σ_g
// and local variance (nom·σ_l)².
func (e *Analytic) arcC(nom float64) cnorm {
	sg := nom * e.m.P.SigmaGlobal
	sl := nom * e.m.P.SigmaLocal
	return cnorm{mu: nom, g: sg, lv: sl * sl}
}

// addC sums an arrival and an arc delay. The sum is exact: means and
// global sensitivities add, and the arc's fresh local factor is
// independent of everything already pooled in a.
func addC(a, b cnorm) cnorm {
	return cnorm{mu: a.mu + b.mu, g: a.g + b.g, lv: a.lv + b.lv}
}

// maxC returns the canonical form of max(a, b) and the tie probability
// P(a >= b), via Clark's operator with the correlation implied by the
// two global sensitivities (local parts are treated as independent —
// the documented reconvergence approximation). The result's global
// sensitivity is the tie-probability-weighted blend of the inputs'
// (the standard first-order reconstruction); its local variance is
// whatever of Clark's exact second moment the blend does not explain,
// clamped at zero when the blend alone overshoots.
func maxC(a, b cnorm) (cnorm, float64) {
	an, bn := a.normal(), b.normal()
	rho := 0.0
	if d := an.Sigma * bn.Sigma; d > 0 {
		rho = a.g * b.g / d
	}
	mx, p := dist.MaxNormal(an, bn, rho)
	g := p*a.g + (1-p)*b.g
	lv := mx.Sigma*mx.Sigma - g*g
	if lv < 0 {
		g = mx.Sigma
		lv = 0
	}
	return cnorm{mu: mx.Mu, g: g, lv: lv}, p
}

// propagate fills arr (indexed by GateID, len(C.Gates) long) with
// canonical arrival forms in topological order: inputs launch at zero,
// every other gate is the Clark max over its fan-in of arrival plus
// arc delay — the analytic mirror of propagateBlock.
//
// wins, when non-nil, records per gate the probability that each
// fan-in pin realizes the gate's arrival: folding candidates
// left-to-right, pin k enters with the current tie probability and
// every earlier pin's share is scaled down by it — the analytic mirror
// of the MC backtrace's first-pin-wins argmax.
func (e *Analytic) propagate(arr []cnorm, wins [][]float64) {
	c := e.m.C
	for _, gid := range c.Order {
		g := &c.Gates[gid]
		if len(g.Fanin) == 0 {
			arr[gid] = cnorm{}
			continue
		}
		var acc cnorm
		var w []float64
		if wins != nil {
			if w = wins[gid]; len(w) != len(g.Fanin) {
				w = make([]float64, len(g.Fanin))
				wins[gid] = w
			}
		}
		for k, fi := range g.Fanin {
			cand := addC(arr[fi], e.arcC(e.m.Nominal[g.InArcs[k]]))
			if k == 0 {
				acc = cand
				if w != nil {
					w[0] = 1
				}
				continue
			}
			merged, p := maxC(acc, cand)
			acc = merged
			if w != nil {
				for j := 0; j < k; j++ {
					w[j] *= p
				}
				w[k] = 1 - p
			}
		}
		arr[gid] = acc
	}
}

// STA propagates canonical arrivals through the whole circuit and
// folds the outputs into the circuit-delay distribution. The engine
// arguments are ignored (closed form); ctx is only checked on entry —
// a full pass is a few microseconds per thousand gates.
func (e *Analytic) STA(ctx context.Context, nSamples int, seed uint64, workers int) (*timing.STADist, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := e.m.C
	arr := make([]cnorm, len(c.Gates))
	e.propagate(arr, nil)
	out := &timing.STADist{Arrivals: make([]dist.Distribution, len(c.Outputs))}
	var acc cnorm
	for i, o := range c.Outputs {
		out.Arrivals[i] = arr[o].normal()
		if i == 0 {
			acc = arr[o]
			continue
		}
		acc, _ = maxC(acc, arr[o])
	}
	out.CircuitDelay = acc.normal()
	return out, nil
}

// Criticality computes per-arc critical-path probabilities in two
// closed-form passes: a forward propagation recording each pin's
// probability of realizing its gate's arrival (Clark tie
// probabilities), then a backward pass over the reversed topological
// order distributing each gate's criticality mass to its pins — the
// analytic mirror of backtraceBlock's counted walks. Pin win events at
// different gates are treated as independent when the chain
// probabilities multiply (the same first-order approximation as the
// merges themselves).
func (e *Analytic) Criticality(ctx context.Context, nSamples int, seed uint64, workers int) (*timing.Criticality, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := e.m.C
	arr := make([]cnorm, len(c.Gates))
	wins := make([][]float64, len(c.Gates))
	e.propagate(arr, wins)

	// Fold the outputs exactly like worstOutput: the latest output
	// seeds the backtrace, so each output's criticality mass is its
	// probability of being the latest.
	credit := make([]float64, len(c.Gates))
	var acc cnorm
	outW := make([]float64, len(c.Outputs))
	for i, o := range c.Outputs {
		if i == 0 {
			acc = arr[o]
			outW[0] = 1
			continue
		}
		merged, p := maxC(acc, arr[o])
		acc = merged
		for j := 0; j < i; j++ {
			outW[j] *= p
		}
		outW[i] = 1 - p
	}
	for i, o := range c.Outputs {
		credit[o] += outW[i]
	}

	cr := &timing.Criticality{Prob: make([]float64, len(c.Arcs))}
	for idx := len(c.Order) - 1; idx >= 0; idx-- {
		gid := c.Order[idx]
		w := credit[gid]
		if w <= 0 {
			continue
		}
		g := &c.Gates[gid]
		if len(g.Fanin) == 0 {
			continue
		}
		for k, fi := range g.Fanin {
			share := w * wins[gid][k]
			cr.Prob[g.InArcs[k]] += share
			credit[fi] += share
		}
	}
	return cr, nil
}

// TimingLength returns the exact closed-form timing length of a path:
// arc delays along a path share the global factor (means and global
// sensitivities add linearly) while their local factors are
// independent (variances add). No max is involved, so unlike STA this
// is not an approximation of the model — it is the model's marginal,
// and the property tests hold it to Monte-Carlo at statistical error.
func (e *Analytic) TimingLength(ctx context.Context, arcs []circuit.ArcID, nSamples int, seed uint64, workers int) (dist.Distribution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nomSum, sq := 0.0, 0.0
	for _, a := range arcs {
		nom := e.m.Nominal[a]
		nomSum += nom
		sq += nom * nom
	}
	g := e.m.P.SigmaGlobal * nomSum
	lv := e.m.P.SigmaLocal * e.m.P.SigmaLocal * sq
	return dist.Normal{Mu: nomSum, Sigma: math.Sqrt(g*g + lv)}, nil
}
