package core

import (
	"repro/internal/circuit"
	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/tsim"
)

// This file relaxes the single-defect assumption (the paper's
// future-work item 3): behavior simulation under several simultaneous
// defects, and an iterative "peel-and-re-diagnose" algorithm that
// explains a behavior matrix with a small set of single-defect
// hypotheses. The dictionary stays single-defect — exactly the
// practical situation the paper anticipates, where the model is
// simpler than reality — and the experiment measures how gracefully
// the single-defect machinery degrades.

// SimulateBehaviorMulti is SimulateBehavior under a multi-defect: all
// extra delays are applied at once. It shares SimulateBehavior's
// word-parallel prescreen — the defect-activity mask becomes the OR
// over all defect drivers — and simulateBehaviorMultiScalar, in the
// tests, is the un-screened oracle.
func SimulateBehaviorMulti(c *circuit.Circuit, delays []float64, patterns []logicsim.PatternPair, md defect.MultiDefect, clk float64) *Behavior {
	defects := make([]screenDefect, 0, len(md))
	for _, df := range md {
		if df.Arc >= 0 && int(df.Arc) < len(c.Arcs) {
			defects = append(defects, screenDefect{arc: df.Arc, extra: df.Size})
		}
	}
	skip, skipped := screenBehavior(c, delays, patterns, defects, clk)
	behaviorSimSkipped.Add(float64(skipped))
	withDefects := md.ApplyTo(delays)
	b := NewBehavior(len(c.Outputs), len(patterns))
	eng := tsim.NewEngine(c)
	for j, pat := range patterns {
		if skip[j>>6]>>(uint(j)&63)&1 != 0 {
			continue // capture provably equals the settled values
		}
		res := eng.Run(withDefects, pat, tsim.AtClock(clk))
		for i, o := range c.Outputs {
			b.Set(i, j, res.Capture[i] != res.Final[o])
		}
	}
	return b
}

// IterativeResult is one round of the multi-defect diagnosis loop.
type IterativeResult struct {
	Candidate Ranked // the round's best single-defect explanation
	Explained int    // failing entries attributed to the candidate
	Residual  int    // failing entries left after peeling
}

// DiagnoseIterative explains a behavior matrix with up to maxDefects
// single-defect hypotheses: each round ranks all suspects with the
// given method, takes the best candidate, removes ("peels") the
// failing entries its signature makes likely, and re-diagnoses the
// residual behavior. Peeling uses the signature threshold: entry
// (i, j) is attributed to the candidate when its S_crt probability
// exceeds threshold (0 < threshold < 1; 0.25 is a reasonable default).
// The loop stops early when no failures remain or the best candidate
// explains nothing.
func (d *Dictionary) DiagnoseIterative(b *Behavior, method Method, maxDefects int, threshold float64) []IterativeResult {
	cur := b.Clone()
	var rounds []IterativeResult
	for round := 0; round < maxDefects && cur.AnyFailure(); round++ {
		ranked := d.Diagnose(cur, method)
		best := ranked[0]
		si := d.SuspectIndex(best.Arc)
		s := d.S[si]
		explained := 0
		for i := 0; i < cur.Rows; i++ {
			for j := 0; j < cur.Cols; j++ {
				if cur.At(i, j) && s.At(i, j) > threshold {
					cur.Set(i, j, false)
					explained++
				}
			}
		}
		rounds = append(rounds, IterativeResult{
			Candidate: best,
			Explained: explained,
			Residual:  cur.FailCount(),
		})
		if explained == 0 {
			break // the model cannot explain the residual; stop peeling
		}
	}
	return rounds
}

// SuspectIndex returns the index of arc a in d.Suspects (the row of its
// signature in d.S), or -1 when a is not a suspect.
func (d *Dictionary) SuspectIndex(a circuit.ArcID) int {
	for i, s := range d.Suspects {
		if s == a {
			return i
		}
	}
	return -1
}

// MultiHits counts how many of the true defect arcs appear among the
// iterative candidates.
func MultiHits(rounds []IterativeResult, truth defect.MultiDefect) int {
	hits := 0
	for _, r := range rounds {
		if truth.Contains(r.Candidate.Arc) {
			hits++
		}
	}
	return hits
}
