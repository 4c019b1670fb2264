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

func TestPinnedTaskStaysPut(t *testing.T) {
	// Two identical tasks; task 0 is pinned to processor 1 even though
	// processor 0 is also free.
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("pinned", c1(10), 0)
	g.MustAddTask("free", c1(10), 0)
	a.Pinned = 1
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{20, 20})

	for name, run := range map[string]func() (*Schedule, error){
		"dispatch": func() (*Schedule, error) { return Dispatch(g, p, asg) },
		"planner":  func() (*Schedule, error) { return ListEDF(g, p, asg, Reserve, nil) },
		"insert":   func() (*Schedule, error) { return ListEDF(g, p, asg, Backfill, nil) },
	} {
		s, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Placements[a.ID].Proc != 1 {
			t.Errorf("%s: pinned task on proc %d, want 1", name, s.Placements[a.ID].Proc)
		}
		if err := Verify(g, p, asg, s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	pre, err := DispatchPreemptive(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Placements[a.ID].Proc != 1 {
		t.Errorf("preemptive: pinned task on proc %d, want 1", pre.Placements[a.ID].Proc)
	}
}

// TestUnplaceablePinIsScreened: a task pinned to a processor the
// platform does not have, or to one of a class it cannot run on, is
// missed up front by every scheduler, and its successor still runs.
func TestUnplaceablePinIsScreened(t *testing.T) {
	hetero := arch.MustNew(arch.Unrelated, []arch.Class{{}, {}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	for _, in := range []struct {
		name        string
		stuck, next []rtime.Time
		pin         int
		p           *arch.Platform
	}{
		{"pinned-outside", c1(10), c1(10), 5, arch.Homogeneous(2)},
		{"pinned-ineligible", []rtime.Time{10, rtime.Unset}, []rtime.Time{10, 10}, 1, hetero},
	} {
		g := taskgraph.NewGraph(len(in.stuck))
		g.MustAddTask("stuck", in.stuck, 0).Pinned = in.pin
		g.MustAddTask("next", in.next, 0)
		g.MustAddArc(0, 1, 0)
		g.MustFreeze()
		asg := manual([]rtime.Time{0, 0}, []rtime.Time{20, 40})

		runs := map[string]func() (*Schedule, error){
			"dispatch": func() (*Schedule, error) { return Dispatch(g, in.p, asg) },
			"planner":  func() (*Schedule, error) { return ListEDF(g, in.p, asg, Reserve, nil) },
			"insert":   func() (*Schedule, error) { return ListEDF(g, in.p, asg, Backfill, nil) },
			"preemptive": func() (*Schedule, error) {
				pre, err := DispatchPreemptive(g, in.p, asg)
				if err != nil {
					return nil, err
				}
				return &pre.Schedule, nil
			},
		}
		for name, run := range runs {
			s, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, name, err)
			}
			if len(s.Missed) != 1 || s.Missed[0] != 0 {
				t.Errorf("%s/%s: missed %v, want [0]", in.name, name, s.Missed)
			}
			if pl := s.Placements[1]; pl.Proc < 0 {
				t.Errorf("%s/%s: successor of the unplaceable task not placed: %+v", in.name, name, pl)
			}
		}
	}
}

func TestPinnedTasksSerializeOnSharedProcessor(t *testing.T) {
	// Two tasks pinned to the same processor must serialize even with a
	// second idle processor.
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	b := g.MustAddTask("b", c1(10), 0)
	a.Pinned, b.Pinned = 0, 0
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{30, 30})
	s, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := s.Placements[a.ID], s.Placements[b.ID]
	if pa.Proc != 0 || pb.Proc != 0 {
		t.Fatalf("placements = %+v %+v", pa, pb)
	}
	if pa.Start < pb.Finish && pb.Start < pa.Finish {
		t.Error("pinned tasks overlap on their processor")
	}
}

func TestVerifyCatchesPinViolation(t *testing.T) {
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	a.Pinned = 1
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := manual([]rtime.Time{0}, []rtime.Time{20})
	s := &Schedule{Placements: []Placement{{Proc: 0, Start: 0, Finish: 10}}}
	if err := Verify(g, p, asg, s); err == nil {
		t.Error("pin violation not caught")
	}
}

func TestPinnedEstimateIsExact(t *testing.T) {
	g := taskgraph.NewGraph(2)
	a := g.MustAddTask("a", []rtime.Time{10, 30}, 0)
	a.Pinned = 1 // class 1 → exact WCET 30, not the average 20
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated, []arch.Class{{}, {}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	est, err := wcet.Estimates(g, p, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 30 {
		t.Errorf("pinned estimate = %d, want exact 30", est[0])
	}
	// Pinning to a processor of an ineligible class is an error.
	g2 := taskgraph.NewGraph(2)
	b := g2.MustAddTask("b", []rtime.Time{10, rtime.Unset}, 0)
	b.Pinned = 1
	g2.MustFreeze()
	if _, err := wcet.Estimates(g2, p, wcet.AVG); err == nil {
		t.Error("ineligible pin accepted")
	}
}

// Property: generated workloads with pinned boundary tasks run the full
// pipeline, every pin is respected, and the schedule verifies.
func TestPinnedWorkloadsPipeline(t *testing.T) {
	f := func(seed int64) bool {
		cfg := gen.Default(4)
		cfg.Seed = seed
		cfg.PinProb = 0.7
		w, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		pins := 0
		for _, tk := range w.Graph.Tasks() {
			if tk.Pinned >= 0 {
				pins++
			}
		}
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			return false
		}
		asg, err := slicing.Distribute(w.Graph, est, 4, slicing.AdaptL(), slicing.CalibratedParams())
		if err != nil {
			return false
		}
		s, err := Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			return false
		}
		for i, tk := range w.Graph.Tasks() {
			if tk.Pinned >= 0 && s.Placements[i].Proc >= 0 && s.Placements[i].Proc != tk.Pinned {
				return false
			}
		}
		return Verify(w.Graph, w.Platform, asg, s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
