package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/timing/engine"
)

// TestAnalyticEngineAcceptance is the acceptance gate for the analytic
// timing engine: it rebuilds the precomputed dictionary under both
// engines on the Table-I profiles and fails if any documented
// tolerance (the Tol* constants) is exceeded — STA moments, dictionary
// entries, or top-1 diagnosis agreement. Run it whenever the analytic
// propagation or the waveform capture model changes.
func TestAnalyticEngineAcceptance(t *testing.T) {
	for _, circ := range []string{"mini", "small"} {
		t.Run(circ, func(t *testing.T) {
			ec, err := CompareEngines(context.Background(), DefaultConfig(circ), 64)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: pats=%d sus=%d clk=%.3f | mean rel %.4f sigma rel %.4f | M mae=%.4f max=%.4f | S mae=%.4f max=%.4f | top1 %d exact, %d near of %d | build %.3fs mc vs %.5fs analytic (%.0fx)",
				circ, ec.Patterns, ec.Suspects, ec.Clk,
				ec.DelayMeanRelErr(), ec.DelaySigmaRelErr(),
				ec.CritProbMAE, ec.CritProbMax, ec.SigMAE, ec.SigMax,
				ec.Top1Agree, ec.Top1Near, ec.Top1Total,
				ec.MCBuildSeconds, ec.AnalyticBuildSeconds, ec.Speedup())
			if err := ec.Check(); err != nil {
				t.Error(err)
			}
			if ec.Top1Total == 0 {
				t.Error("no dies produced failures; the top-1 comparison is vacuous")
			}
		})
	}
}

// Acceptance tolerances for the analytic engine against the
// Monte-Carlo reference, measured end-to-end by CompareEngines and
// enforced by EngineComparison.Check (wired into `go test` and `make
// ci`). The bounds are set from observed errors on the small/medium
// synthetic circuits at the default timing regime with ~3× headroom,
// so a regression in the analytic propagation trips the gate while MC
// sampling noise does not. DESIGN.md §14 quotes them.
const (
	// TolDelayMeanRel bounds the relative error of the analytic
	// circuit-delay mean. Clark's operator is nearly unbiased in the
	// mean; observed error is 0.5–1.7 % on the synthetic circuits.
	TolDelayMeanRel = 0.05
	// TolDelaySigmaRel bounds the relative error of the analytic
	// circuit-delay standard deviation, the moment the Gaussian
	// renormalization and the reconvergence independence both distort;
	// observed error is 13–22 %, consistently an underestimate.
	TolDelaySigmaRel = 0.4
	// TolCritProbMAE bounds the mean absolute error over the M matrix
	// (defect-free critical probabilities per output and pattern);
	// observed 0.001–0.008.
	TolCritProbMAE = 0.05
	// TolCritProbMax bounds the worst single M entry error: the
	// frozen-waveform model can misjudge individual hazard-marginal
	// entries (observed worst 0.15), but never by more than this.
	TolCritProbMax = 0.35
	// TolSigMAE bounds the mean absolute error over all signature
	// (S = E − M) entries — the quantity diagnosis actually consumes;
	// observed 0.0001–0.003 (shared model error cancels in E − M).
	TolSigMAE = 0.05
	// TolTop1ScoreBand is the Alg_rev score band within which two
	// suspects count as tied for the top-1 comparison. Dictionaries
	// routinely hold groups of suspects with equivalent signatures
	// (same cone, same sensitized outputs) whose scores differ only by
	// MC sampling noise, so which group member ranks first is arbitrary
	// — rebuilding the MC dictionary with a different seed flips the
	// same dies. A single dictionary entry's sampling σ peaks at
	// √(0.25/Samples) ≈ 0.05 at the default 96-sample build, and a die
	// failing f patterns sums f such entries into its score, putting
	// 1σ of score noise at 0.10–0.13 for typical f of 4–6; the band is
	// that 1σ. The analytic pick counts as agreeing when its score
	// UNDER THE MC DICTIONARY is within the band of the MC optimum
	// (lower Alg_rev score = better).
	TolTop1ScoreBand = 0.125
	// MinTop1Agreement is the minimum fraction of non-escaped dies on
	// which the analytic top-ranked suspect under Alg_rev is the MC
	// top pick or within TolTop1ScoreBand of it.
	MinTop1Agreement = 0.9
)

// EngineComparison quantifies the analytic engine's error against the
// Monte-Carlo reference on one circuit: STA moments, dictionary
// entries, end-to-end diagnosis agreement, and build cost.
type EngineComparison struct {
	Circuit  string
	Patterns int
	Suspects int
	Clk      float64

	// Circuit-delay moments, MC vs analytic.
	DelayMeanMC, DelayMeanAnalytic   float64
	DelaySigmaMC, DelaySigmaAnalytic float64

	// Error over the defect-free critical-probability matrix M.
	CritProbMAE, CritProbMax float64
	// Error over all signature (S) entries.
	SigMAE, SigMax float64

	// Top-1 Alg_rev agreement over non-escaped injected-defect dies:
	// Top1Agree counts exact same-arc picks, Top1Near additionally
	// counts analytic picks whose MC score ties the MC optimum within
	// TolTop1ScoreBand (see the constant for why ties are expected).
	Top1Agree, Top1Near, Top1Total int

	// Dictionary build wall times.
	MCBuildSeconds, AnalyticBuildSeconds float64
}

// DelayMeanRelErr returns |mean_an − mean_mc| / mean_mc.
func (ec *EngineComparison) DelayMeanRelErr() float64 {
	return relErr(ec.DelayMeanAnalytic, ec.DelayMeanMC)
}

// DelaySigmaRelErr returns |sigma_an − sigma_mc| / sigma_mc.
func (ec *EngineComparison) DelaySigmaRelErr() float64 {
	return relErr(ec.DelaySigmaAnalytic, ec.DelaySigmaMC)
}

// Top1AgreementRate returns the fraction of compared dies whose
// analytic top pick matched the MC pick exactly or within the score
// tie band (1 when no die produced a failure).
func (ec *EngineComparison) Top1AgreementRate() float64 {
	if ec.Top1Total == 0 {
		return 1
	}
	return float64(ec.Top1Near) / float64(ec.Top1Total)
}

// Speedup returns the MC/analytic dictionary build-time ratio.
func (ec *EngineComparison) Speedup() float64 {
	if ec.AnalyticBuildSeconds <= 0 {
		return math.Inf(1)
	}
	return ec.MCBuildSeconds / ec.AnalyticBuildSeconds
}

func relErr(got, want float64) float64 {
	if want == 0 { //lint:ignore floateq guarding the exact-zero denominator, not comparing computed floats
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Check returns an error listing every violated acceptance tolerance,
// or nil when the analytic engine is within all documented bounds.
func (ec *EngineComparison) Check() error {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if e := ec.DelayMeanRelErr(); e > TolDelayMeanRel {
		fail("delay mean rel err %.4f > %.4f", e, TolDelayMeanRel)
	}
	if e := ec.DelaySigmaRelErr(); e > TolDelaySigmaRel {
		fail("delay sigma rel err %.4f > %.4f", e, TolDelaySigmaRel)
	}
	if ec.CritProbMAE > TolCritProbMAE {
		fail("critical-probability MAE %.4f > %.4f", ec.CritProbMAE, TolCritProbMAE)
	}
	if ec.CritProbMax > TolCritProbMax {
		fail("critical-probability max err %.4f > %.4f", ec.CritProbMax, TolCritProbMax)
	}
	if ec.SigMAE > TolSigMAE {
		fail("signature MAE %.4f > %.4f", ec.SigMAE, TolSigMAE)
	}
	if r := ec.Top1AgreementRate(); r < MinTop1Agreement {
		fail("top-1 agreement %.3f < %.3f (%d near of %d, %d exact)",
			r, MinTop1Agreement, ec.Top1Near, ec.Top1Total, ec.Top1Agree)
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("eval: analytic engine outside acceptance tolerance on %s: %s",
		ec.Circuit, strings.Join(bad, "; "))
}

// CompareEngines builds the same precomputed dictionary under the
// Monte-Carlo and analytic engines — identical circuit, patterns,
// suspects and (MC-selected) cut-off period, so every difference is
// engine error, not stimulus drift — and measures STA moments,
// per-entry dictionary error, and top-1 Alg_rev agreement over cfg.N
// injected-defect dies. This is the acceptance harness behind the
// -engine flag: run it whenever the analytic propagation changes.
func CompareEngines(ctx context.Context, cfg Config, maxSuspects int) (*EngineComparison, error) {
	mcCfg := cfg
	mcCfg.Engine = "mc"
	p, sc, err := prepareStatic(mcCfg, maxSuspects)
	if err != nil {
		return nil, err
	}
	ec := &EngineComparison{
		Circuit:  cfg.Circuit,
		Patterns: len(sc.Pats),
		Suspects: len(sc.Suspects),
		Clk:      sc.Clk,
	}

	// STA moments at matched effort: the MC run uses the dictionary
	// sample budget, the analytic engine is closed-form.
	staSamples := cfg.DictSamples
	if staSamples < cfg.ClkSamples {
		staSamples = cfg.ClkSamples
	}
	anEng := engine.NewAnalytic(p.Model)
	staMC, err := p.Engine.STA(ctx, staSamples, rng.Derive(cfg.Seed, 0xacce), cfg.Workers)
	if err != nil {
		return nil, err
	}
	staAN, err := anEng.STA(ctx, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	ec.DelayMeanMC = staMC.CircuitDelay.Mean()
	ec.DelayMeanAnalytic = staAN.CircuitDelay.Mean()
	ec.DelaySigmaMC = staMC.CircuitDelay.Std()
	ec.DelaySigmaAnalytic = staAN.CircuitDelay.Std()

	build := func(eng timing.Engine) (*core.Dictionary, float64, error) {
		q, d := *p, *sc
		q.Engine = eng
		start := time.Now()
		err := q.Dictionary(ctx, &d, rng.Derive(cfg.Seed, 0x57a9))
		return d.Dict, time.Since(start).Seconds(), err
	}
	dictMC, tMC, err := build(p.Engine)
	if err != nil {
		return nil, err
	}
	dictAN, tAN, err := build(anEng)
	if err != nil {
		return nil, err
	}
	ec.MCBuildSeconds, ec.AnalyticBuildSeconds = tMC, tAN

	ec.CritProbMAE, ec.CritProbMax = matErr(dictAN.M, dictMC.M)
	var sigSum, sigMax float64
	var sigN int
	sigAN, sigMC, n := signatures(dictAN), signatures(dictMC), len(dictMC.M)
	for i := range dictMC.Suspects {
		mae, mx := matErr(sigAN[i*n:(i+1)*n], sigMC[i*n:(i+1)*n])
		sigSum += mae * float64(n)
		sigN += n
		if mx > sigMax {
			sigMax = mx
		}
	}
	if sigN > 0 {
		ec.SigMAE = sigSum / float64(sigN)
	}
	ec.SigMax = sigMax

	// End-to-end: diagnose the same injected-defect dies against both
	// dictionaries (the RunPrecomputed dies, so results line up with
	// that experiment) and compare the Alg_rev top pick.
	for i := 0; i < cfg.N; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := staticCase(p, sc, i).B
		if !b.AnyFailure() {
			continue
		}
		rankMC := dictMC.Diagnose(b, core.AlgRev, 0)
		rankAN := dictAN.Diagnose(b, core.AlgRev, 1)
		if len(rankMC) == 0 || len(rankAN) == 0 {
			continue
		}
		ec.Top1Total++
		if rankMC[0].Arc == rankAN[0].Arc {
			ec.Top1Agree++
			ec.Top1Near++
			continue
		}
		// Different arc: agree anyway if the analytic pick scores
		// within the tie band of the MC optimum on the MC dictionary.
		for _, rk := range rankMC {
			if rk.Arc == rankAN[0].Arc {
				if rk.Score-rankMC[0].Score <= TolTop1ScoreBand {
					ec.Top1Near++
				}
				break
			}
		}
	}
	return ec, nil
}

// signatures derives every suspect's S_crt = max(E_crt − M_crt, 0)
// from d, densely: suspect si's matrix is s[si*n : (si+1)*n] for the
// n = Rows*Cols cells of M.
func signatures(d *core.Dictionary) []float64 {
	n := len(d.M)
	s := make([]float64, len(d.Suspects)*n)
	for si := range d.Suspects {
		copy(s[si*n:], d.M)
	}
	for _, c := range d.E {
		s[c.K] = c.E
	}
	for k, e := range s {
		s[k] = max(e-d.M[k%n], 0)
	}
	return s
}

// matErr returns the mean and max absolute entrywise difference of two
// equal-length matrices.
func matErr(got, want []float64) (mae, maxErr float64) {
	if len(got) == 0 {
		return 0, 0
	}
	sum := 0.0
	for k := range got {
		d := math.Abs(got[k] - want[k])
		sum += d
		if d > maxErr {
			maxErr = d
		}
	}
	return sum / float64(len(got)), maxErr
}
