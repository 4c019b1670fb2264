package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

// twoSharers builds two independent tasks holding the same resource.
func twoSharers(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	b := g.MustAddTask("b", c1(10), 0)
	a.Resources = []int{0}
	b.Resources = []int{0}
	g.MustFreeze()
	return g
}

func TestDispatchSerializesResourceSharers(t *testing.T) {
	g := twoSharers(t)
	p := arch.Homogeneous(2) // two processors, but one shared resource
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{30, 30})
	s, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible {
		t.Fatalf("serial execution fits in [0,30): %+v", s.Placements)
	}
	a, b := s.Placements[0], s.Placements[1]
	if a.Start < b.Finish && b.Start < a.Finish {
		t.Errorf("resource sharers overlap: %+v %+v", a, b)
	}
	if err := Verify(g, p, asg, s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestEDFPlannerSerializesResourceSharers(t *testing.T) {
	g := twoSharers(t)
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{30, 30})
	s, err := ListEDF(g, p, asg, Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Placements[0], s.Placements[1]
	if a.Start < b.Finish && b.Start < a.Finish {
		t.Errorf("planner overlapped resource sharers: %+v %+v", a, b)
	}
	if err := Verify(g, p, asg, s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyCatchesResourceOverlap(t *testing.T) {
	g := twoSharers(t)
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{30, 30})
	s := &Schedule{Placements: []Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 1, Start: 5, Finish: 15}, // overlaps the resource hold
	}}
	if err := Verify(g, p, asg, s); err == nil {
		t.Error("concurrent resource hold not caught")
	}
}

func TestDistinctResourcesDoNotSerialize(t *testing.T) {
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	b := g.MustAddTask("b", c1(10), 0)
	a.Resources = []int{0}
	b.Resources = []int{1}
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{15, 15})
	s, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible || s.Placements[0].Start != 0 || s.Placements[1].Start != 0 {
		t.Errorf("independent resources should run in parallel: %+v", s.Placements)
	}
}

func TestResourceGuards(t *testing.T) {
	g := twoSharers(t)
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{30, 30})
	if _, err := ListEDF(g, p, asg, Backfill, nil); err == nil {
		t.Error("InsertEDF should refuse resource-bearing graphs")
	}
	if _, err := DispatchPreemptive(g, p, asg); err == nil {
		t.Error("DispatchPreemptive should refuse resource-bearing graphs")
	}
}

// Property: generated resource-bearing workloads dispatch into
// schedules whose resource holds never overlap.
func TestGeneratedResourceWorkloadsSerialize(t *testing.T) {
	f := func(seed int64) bool {
		cfg := gen.Default(4)
		cfg.Seed = seed
		cfg.NumResources = 3
		cfg.ResourceProb = 0.4
		w, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			return false
		}
		asg, err := slicing.Distribute(w.Graph, est, 4, slicing.AdaptR(), slicing.CalibratedParams())
		if err != nil {
			return false
		}
		s, err := Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			return false
		}
		if err := Verify(w.Graph, w.Platform, asg, s); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The §7.3 extension claim: on resource-heavy workloads, the
// resource-aware ADAPT-R metric should outperform plain ADAPT-L, since
// it grants extra laxity to the tasks that serialize on shared data
// structures.
func TestAdaptRBeatsAdaptLUnderResourceContention(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a few hundred pipeline runs")
	}
	lSucc, rSucc := 0, 0
	const graphs = 150
	for idx := 0; idx < graphs; idx++ {
		cfg := gen.Default(4)
		cfg.OLR = 0.6
		cfg.Seed = gen.SubSeed(5, idx)
		cfg.NumResources = 2
		cfg.ResourceProb = 0.35
		w := gen.MustGenerate(cfg)
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range []slicing.Metric{slicing.AdaptL(), slicing.AdaptR()} {
			asg, err := slicing.Distribute(w.Graph, est, 4, metric, slicing.CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			s, err := Dispatch(w.Graph, w.Platform, asg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Feasible {
				if metric.Name() == "ADAPT-L" {
					lSucc++
				} else {
					rSucc++
				}
			}
		}
	}
	t.Logf("ADAPT-L %d/%d, ADAPT-R %d/%d", lSucc, graphs, rSucc, graphs)
	if rSucc < lSucc {
		t.Errorf("ADAPT-R (%d) should not lose to ADAPT-L (%d) under resource contention", rSucc, lSucc)
	}
}
