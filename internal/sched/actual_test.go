package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

func fullFrac(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1
	}
	return f
}

func TestActualFullFractionMatchesDispatch(t *testing.T) {
	cfg := gen.Default(3)
	cfg.Seed = 31
	w := gen.MustGenerate(cfg)
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}

	// Task 0 is pinned to a processor the platform does not have: it is
	// unplaceable, but its successor must still run.
	pinned := taskgraph.NewGraph(1)
	pinned.MustAddTask("stuck", c1(10), 0).Pinned = 5
	pinned.MustAddTask("next", c1(10), 0)
	pinned.MustAddArc(0, 1, 0)
	pinned.MustFreeze()

	for _, in := range []struct {
		name string
		g    *taskgraph.Graph
		p    *arch.Platform
		asg  *slicing.Assignment
	}{
		{"generated", w.Graph, w.Platform, asg},
		{"pinned-outside", pinned, arch.Homogeneous(2), manual([]rtime.Time{0, 0}, []rtime.Time{20, 40})},
	} {
		a, err := Dispatch(in.g, in.p, in.asg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DispatchActual(in.g, in.p, in.asg, fullFrac(in.g.NumTasks()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Placements {
			if a.Placements[i] != b.Placements[i] {
				t.Fatalf("%s: task %d: %+v vs %+v", in.name, i, a.Placements[i], b.Placements[i])
			}
		}
		if !reflect.DeepEqual(a.Missed, b.Missed) {
			t.Fatalf("%s: missed %v vs %v", in.name, a.Missed, b.Missed)
		}
	}
}

func TestActualValidation(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := manual([]rtime.Time{0}, []rtime.Time{20})
	if _, err := DispatchActual(g, p, asg, nil); err == nil {
		t.Error("missing fractions accepted")
	}
	if _, err := DispatchActual(g, p, asg, []float64{0}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := DispatchActual(g, p, asg, []float64{1.5}); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

// The Graham-style anomaly, constructed deterministically: a schedule
// that is feasible under full WCETs becomes infeasible when one task
// finishes early, because the early completion lets the dispatcher
// commit a long, later-deadline task before the tight one arrives.
func TestEarlyCompletionAnomaly(t *testing.T) {
	g := taskgraph.NewGraph(1)
	x := g.MustAddTask("X", c1(12), 0) // deadline 12: always dispatched first
	y := g.MustAddTask("Y", c1(14), 0) // slack task
	z := g.MustAddTask("Z", c1(14), 0) // tight, arrives at 11
	_ = x
	_ = y
	_ = z
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := manual(
		[]rtime.Time{0, 0, 11},
		[]rtime.Time{12, 40, 26})

	// Full WCET: X [0,12); at 12 both Y and Z are ready, EDF picks Z
	// (deadline 26 < 40) → Z [12,26) meets, Y [26,40) meets.
	full, err := DispatchActual(g, p, asg, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible {
		t.Fatalf("full-WCET run should be feasible: %+v", full.Placements)
	}

	// X finishes early (10 of 12): at 10 only Y is ready → Y [10,24);
	// Z arrives at 11, waits, runs [24,38) and misses 26.
	early, err := DispatchActual(g, p, asg, []float64{10.0 / 12.0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if early.Feasible {
		t.Fatalf("early completion should trigger the anomaly: %+v", early.Placements)
	}
	if len(early.Missed) != 1 || early.Missed[0] != z.ID {
		t.Errorf("missed = %v, want [Z]", early.Missed)
	}
}

// Statistical view of the anomaly: over random workloads with random
// early completions, count both directions (early completion rescues a
// failing schedule vs breaks a feasible one). Rescues should dominate —
// shorter work usually helps — but breaks must exist.
func TestAnomalyRates(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical study")
	}
	rescued, broken := 0, 0
	const graphs = 200
	for idx := 0; idx < graphs; idx++ {
		cfg := gen.Default(3)
		cfg.OLR = 0.55
		cfg.Seed = gen.SubSeed(3, idx)
		w := gen.MustGenerate(cfg)
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		full, err := Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(gen.SubSeed(4, idx)))
		frac := make([]float64, w.Graph.NumTasks())
		for i := range frac {
			frac[i] = 0.5 + 0.5*rng.Float64()
		}
		actual, err := DispatchActual(w.Graph, w.Platform, asg, frac)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !full.Feasible && actual.Feasible:
			rescued++
		case full.Feasible && !actual.Feasible:
			broken++
		}
	}
	t.Logf("rescued %d, broken (anomaly) %d of %d", rescued, broken, graphs)
	if rescued == 0 {
		t.Error("early completion never helped — suspicious")
	}
	// The anomaly is real but rare; do not demand it on every sample
	// set, only that the mechanism is not impossibly frequent.
	if broken > graphs/4 {
		t.Errorf("anomaly rate %d/%d implausibly high", broken, graphs)
	}
}
