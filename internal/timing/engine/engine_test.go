package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/synth"
	"repro/internal/timing"
)

func synthModel(t testing.TB, profile string, seed uint64) *timing.Model {
	t.Helper()
	c, err := synth.GenerateNamed(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return timing.NewModel(c, timing.DefaultParams())
}

func benchModel(t testing.TB, src, name string) *timing.Model {
	t.Helper()
	c, err := benchfmt.ParseString(src, name, true)
	if err != nil {
		t.Fatal(err)
	}
	return timing.NewModel(c, timing.DefaultParams())
}

func TestRegistry(t *testing.T) {
	if got := Names(); !reflect.DeepEqual(got, []string{"analytic", "mc"}) {
		t.Fatalf("Names() = %v, want [analytic mc]", got)
	}
	for _, name := range []string{"", "mc", "analytic"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("bogus") {
		t.Error("Known(bogus) = true")
	}
	m := synthModel(t, "mini", 1)
	eng, err := New("", m)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != DefaultName {
		t.Errorf("New(\"\").Name() = %q, want %q", eng.Name(), DefaultName)
	}
	if _, err := New("bogus", m); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
}

// TestMCBitIdentity pins New("mc") to timing.MC: at
// every worker count, all three methods must agree bit for bit with a
// directly constructed engine, down to the raw samples.
func TestMCBitIdentity(t *testing.T) {
	m := synthModel(t, "small", 7)
	eng, err := New("mc", m)
	if err != nil {
		t.Fatal(err)
	}
	ref := timing.NewMC(m)
	ctx := context.Background()
	arcs := longestStructuralPath(m)
	const n, seed = 2000, 42
	for _, workers := range []int{1, 4} {
		sta, err := eng.STA(ctx, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		staRef, err := ref.STA(ctx, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sta, staRef) {
			t.Errorf("workers=%d: STA differs from timing.MC", workers)
		}

		cr, err := eng.Criticality(ctx, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		crRef, err := ref.Criticality(ctx, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cr, crRef) {
			t.Errorf("workers=%d: Criticality differs from timing.MC", workers)
		}

		tl, err := eng.TimingLength(ctx, arcs, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		tlRef, err := ref.TimingLength(ctx, arcs, n, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tl, tlRef) {
			t.Errorf("workers=%d: TimingLength differs from timing.MC", workers)
		}
	}
}

// longestStructuralPath walks back from the first output along each
// gate's nominally latest fan-in, collecting the arc sequence — a
// convenient real path for TimingLength tests.
func longestStructuralPath(m *timing.Model) []circuit.ArcID {
	arr := m.ArrivalTimes(m.NominalInstance())
	var arcs []circuit.ArcID
	g := m.C.Outputs[0]
	for len(m.C.Gates[g].Fanin) > 0 {
		best := 0
		for k, fi := range m.C.Gates[g].Fanin {
			if arr[fi] > arr[m.C.Gates[g].Fanin[best]] {
				best = k
			}
			_ = fi
		}
		arcs = append(arcs, m.C.Gates[g].InArcs[best])
		g = m.C.Gates[g].Fanin[best]
	}
	// Reverse into launch-to-capture order (TimingLength is
	// order-independent, but paths read better forward).
	for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
		arcs[i], arcs[j] = arcs[j], arcs[i]
	}
	return arcs
}
