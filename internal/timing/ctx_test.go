package timing

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/synth"
)

func ctxTestModel(t *testing.T) *Model {
	t.Helper()
	c, err := synth.GenerateNamed("small", 2003)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(c, DefaultParams())
}

// TestMonteCarloSTACtxMatchesPlain: a live cancellable context must not
// perturb the result — STA under context.WithCancel equals STA under
// context.Background() sample for sample.
func TestMonteCarloSTACtxMatchesPlain(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := mcSTA(t, m, 64, 7, 2)
	viaCtx, err := NewMC(m).STA(ctx, 64, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCtx.CircuitDelay, plain.CircuitDelay) {
		t.Error("live-context run diverged on the circuit delay")
	}
	for i := range plain.Arrivals {
		if !reflect.DeepEqual(viaCtx.Arrivals[i], plain.Arrivals[i]) {
			t.Fatalf("live-context run diverged on output %d", i)
		}
	}
}

func TestMonteCarloSTACtxCancelled(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewMC(m).STA(ctx, 512, 7, 2)
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if res != nil {
		t.Error("cancelled run returned a partial STADist")
	}
}

// TestMonteCarloCriticalityCtxMatchesPlain: Criticality under a live
// context.WithCancel equals Criticality under context.Background().
func TestMonteCarloCriticalityCtxMatchesPlain(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := mcCriticality(t, m, 64, 11, 2)
	viaCtx, err := NewMC(m).Criticality(ctx, 64, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Prob {
		if plain.Prob[i] != viaCtx.Prob[i] { //lint:ignore floateq same seed and sample count must reproduce bit-identical probabilities
			t.Fatalf("live-context run diverged at arc %d: %v vs %v", i, viaCtx.Prob[i], plain.Prob[i])
		}
	}
}

func TestMonteCarloCriticalityCtxCancelled(t *testing.T) {
	m := ctxTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cr, err := NewMC(m).Criticality(ctx, 4096, 11, 2)
	if err == nil {
		t.Fatal("err = nil on a dead context")
	}
	if cr != nil {
		t.Error("cancelled run returned a partial Criticality")
	}
}

func TestMonteCarloCriticalityCtxZeroSamples(t *testing.T) {
	m := ctxTestModel(t)
	cr, err := NewMC(m).Criticality(context.Background(), 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cr == nil || len(cr.Prob) != len(m.C.Arcs) {
		t.Fatal("zero-sample call must return the zero-value Criticality")
	}
	for i, p := range cr.Prob {
		if p != 0 {
			t.Fatalf("Prob[%d] = %v, want 0", i, p)
		}
	}
}
