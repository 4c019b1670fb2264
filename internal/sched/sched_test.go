package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

func c1(v rtime.Time) []rtime.Time { return []rtime.Time{v} }

// manual builds an assignment directly, bypassing the slicer, so the
// scheduler can be tested in isolation.
func manual(arrivals, deadlines []rtime.Time) *slicing.Assignment {
	rel := make([]rtime.Time, len(arrivals))
	for i := range rel {
		rel[i] = deadlines[i] - arrivals[i]
	}
	return &slicing.Assignment{Arrival: arrivals, AbsDeadline: deadlines, RelDeadline: rel}
}

func TestSingleTask(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	s, err := ListEDF(g, p, manual([]rtime.Time{0}, []rtime.Time{10}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible || s.Placements[0].Start != 0 || s.Placements[0].Finish != 10 {
		t.Errorf("placement = %+v, feasible = %v", s.Placements[0], s.Feasible)
	}
	if s.MaxLateness != 0 || s.Makespan != 10 {
		t.Errorf("lateness = %d, makespan = %d", s.MaxLateness, s.Makespan)
	}
}

func TestDeadlineMiss(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	s, err := ListEDF(g, p, manual([]rtime.Time{0}, []rtime.Time{9}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible {
		t.Error("10-unit task in 9-unit window reported feasible")
	}
	if s.MaxLateness != 1 {
		t.Errorf("MaxLateness = %d, want 1", s.MaxLateness)
	}
	if len(s.Missed) != 1 || s.Missed[0] != 0 {
		t.Errorf("Missed = %v", s.Missed)
	}
}

func TestEDFOrderByDeadline(t *testing.T) {
	// Two independent tasks on one processor: the tighter deadline runs
	// first even though it has the higher ID.
	g := taskgraph.NewGraph(1)
	g.MustAddTask("slack", c1(10), 0)
	g.MustAddTask("tight", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	s, err := ListEDF(g, p, manual([]rtime.Time{0, 0}, []rtime.Time{40, 15}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible {
		t.Fatalf("should be feasible: %+v", s)
	}
	if s.Placements[1].Start != 0 || s.Placements[0].Start != 10 {
		t.Errorf("EDF order wrong: %+v", s.Placements)
	}
	if len(s.Order) != 2 || s.Order[0] != 1 {
		t.Errorf("Order = %v, want tight first", s.Order)
	}
}

func TestArrivalTimeRespected(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(5), 0)
	g.MustFreeze()
	p := arch.Homogeneous(2)
	s, err := ListEDF(g, p, manual([]rtime.Time{20}, []rtime.Time{30}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[0].Start != 20 {
		t.Errorf("start = %d, want arrival 20", s.Placements[0].Start)
	}
}

func TestCommunicationDelaysRemoteSuccessor(t *testing.T) {
	// a → b with a 5-item message. With m=2 and a second task hogging
	// proc 0, b on proc 1 pays the bus cost.
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	b := g.MustAddTask("b", c1(10), 0)
	g.MustAddArc(a.ID, b.ID, 5)
	g.MustFreeze()

	// One processor: co-located, no comm cost.
	s1, err := ListEDF(g, arch.Homogeneous(1), manual([]rtime.Time{0, 10}, []rtime.Time{10, 25}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Placements[b.ID].Start != 10 {
		t.Errorf("co-located successor starts at %d, want 10", s1.Placements[b.ID].Start)
	}

	// Same-processor placement also wins on two processors, because the
	// free co-located start (10) beats the remote start (15).
	s2, err := ListEDF(g, arch.Homogeneous(2), manual([]rtime.Time{0, 10}, []rtime.Time{10, 25}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Placements[b.ID].Proc != s2.Placements[a.ID].Proc {
		t.Error("scheduler should co-locate to dodge the bus delay")
	}
	if s2.Placements[b.ID].Start != 10 {
		t.Errorf("start = %d, want 10", s2.Placements[b.ID].Start)
	}
}

func TestRemotePlacementPaysBus(t *testing.T) {
	// a → b, but b is ineligible on a's processor class, forcing a
	// remote placement that pays the 5-unit message delay.
	g := taskgraph.NewGraph(2)
	a := g.MustAddTask("a", []rtime.Time{10, rtime.Unset}, 0)
	b := g.MustAddTask("b", []rtime.Time{rtime.Unset, 10}, 0)
	g.MustAddArc(a.ID, b.ID, 5)
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "x"}, {Name: "y"}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	s, err := ListEDF(g, p, manual([]rtime.Time{0, 10}, []rtime.Time{10, 40}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[b.ID].Proc != 1 {
		t.Fatalf("b on proc %d, want 1", s.Placements[b.ID].Proc)
	}
	if s.Placements[b.ID].Start != 15 { // finish 10 + 5 bus units
		t.Errorf("b starts at %d, want 15", s.Placements[b.ID].Start)
	}
	if err := Verify(g, p, manual([]rtime.Time{0, 10}, []rtime.Time{10, 40}), s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestHeterogeneousPrefersEarlierFinishOnTie(t *testing.T) {
	// Both processors are free at 0; class 1 runs the task faster. Start
	// times tie, so the faster finish should win.
	g := taskgraph.NewGraph(2)
	g.MustAddTask("", []rtime.Time{20, 10}, 0)
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "slow"}, {Name: "fast"}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	s, err := ListEDF(g, p, manual([]rtime.Time{0}, []rtime.Time{30}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[0].Proc != 1 || s.Placements[0].Finish != 10 {
		t.Errorf("placement = %+v, want fast processor", s.Placements[0])
	}
}

func TestNoEligibleProcessor(t *testing.T) {
	g := taskgraph.NewGraph(2)
	g.MustAddTask("", []rtime.Time{10, rtime.Unset}, 0)
	g.MustFreeze()
	// Platform only hosts class 1.
	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "x"}, {Name: "y"}}, []int{1}, arch.Bus{DelayPerItem: 1})
	s, err := ListEDF(g, p, manual([]rtime.Time{0}, []rtime.Time{100}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible || s.Placements[0].Proc != -1 {
		t.Error("unplaceable task should make the schedule infeasible")
	}
	if len(s.Missed) != 1 {
		t.Errorf("Missed = %v", s.Missed)
	}
}

func TestAssignmentShapeValidation(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(5), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	if _, err := ListEDF(g, p, manual(nil, nil), Reserve, nil); err == nil {
		t.Error("short assignment accepted")
	}
	bad := manual([]rtime.Time{rtime.Unset}, []rtime.Time{10})
	if _, err := ListEDF(g, p, bad, Reserve, nil); err == nil {
		t.Error("unset arrival accepted")
	}
}

func TestNonPreemptiveContention(t *testing.T) {
	// Three 10-unit tasks, one processor, overlapping windows with
	// deadlines at 10/20/30: feasible only if EDF runs them back to back.
	g := taskgraph.NewGraph(1)
	for i := 0; i < 3; i++ {
		g.MustAddTask("", c1(10), 0)
	}
	g.MustFreeze()
	p := arch.Homogeneous(1)
	s, err := ListEDF(g, p, manual([]rtime.Time{0, 0, 0}, []rtime.Time{30, 10, 20}), Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible {
		t.Fatalf("EDF should pack 3×10 into [0,30): %+v", s.Placements)
	}
	if s.Placements[1].Start != 0 || s.Placements[2].Start != 10 || s.Placements[0].Start != 20 {
		t.Errorf("EDF sequence wrong: %+v", s.Placements)
	}
}

// End-to-end: slicing output feeds the scheduler, and Verify agrees.
func TestSliceThenSchedule(t *testing.T) {
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("a", c1(10), 0)
	b := g.MustAddTask("b", c1(20), 0)
	c := g.MustAddTask("c", c1(20), 0)
	d := g.MustAddTask("d", c1(10), 0)
	g.MustAddArc(a.ID, b.ID, 1)
	g.MustAddArc(a.ID, c.ID, 1)
	g.MustAddArc(b.ID, d.ID, 1)
	g.MustAddArc(c.ID, d.ID, 1)
	g.Task(d.ID).ETEDeadline = 80
	g.MustFreeze()
	est := []rtime.Time{10, 20, 20, 10}
	asg, err := slicing.Distribute(g, est, 2, slicing.AdaptL(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Homogeneous(2)
	s, err := ListEDF(g, p, asg, Reserve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible {
		t.Fatalf("diamond with OLR 80/60 should schedule on 2 procs: missed %v, windows a=%v D=%v",
			s.Missed, asg.Arrival, asg.AbsDeadline)
	}
	if err := Verify(g, p, asg, s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// Property: every schedule the EDF scheduler emits passes the
// independent Verify check, on random workloads and platforms.
func TestEDFAlwaysVerifies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nClasses := 1 + rng.Intn(3)
		g := taskgraph.NewGraph(nClasses)
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			w := make([]rtime.Time, nClasses)
			ok := false
			for k := range w {
				if rng.Intn(20) == 0 {
					w[k] = rtime.Unset
				} else {
					w[k] = rtime.Time(5 + rng.Intn(30))
					ok = true
				}
			}
			if !ok {
				w[0] = 10
			}
			g.MustAddTask("", w, 0)
		}
		for j := 1; j < n; j++ {
			if rng.Intn(3) > 0 {
				g.MustAddArc(rng.Intn(j), j, rtime.Time(rng.Intn(4)))
			}
		}
		g.MustFreeze()
		for _, out := range g.Outputs() {
			g.Task(out).ETEDeadline = rtime.Time(100 + rng.Intn(900))
		}
		classOf := make([]int, 1+rng.Intn(6))
		for q := range classOf {
			classOf[q] = rng.Intn(nClasses)
		}
		classes := make([]arch.Class, nClasses)
		p := arch.MustNew(arch.Unrelated, classes, classOf, arch.Bus{DelayPerItem: 1})

		est := make([]rtime.Time, n)
		for i := range est {
			est[i] = 10 // crude estimate; scheduler only needs windows
		}
		asg, err := slicing.Distribute(g, est, p.M(), slicing.AdaptG(), slicing.DefaultParams())
		if err != nil {
			return false
		}
		s, err := ListEDF(g, p, asg, Reserve, nil)
		if err != nil {
			t.Logf("seed %d: EDF: %v", seed, err)
			return false
		}
		if err := Verify(g, p, asg, s); err != nil {
			t.Logf("seed %d: Verify: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDispatchHonorsNetworkTopology(t *testing.T) {
	// a → b with a 6-item message; b is ineligible on a's class, so it
	// must run remotely. With the shared bus the message costs 6; a
	// dedicated link between procs 0 and 1 makes it free, so b starts
	// right at a's finish.
	g := taskgraph.NewGraph(2)
	a := g.MustAddTask("a", []rtime.Time{10, rtime.Unset}, 0)
	b := g.MustAddTask("b", []rtime.Time{rtime.Unset, 10}, 0)
	g.MustAddArc(a.ID, b.ID, 6)
	g.MustFreeze()
	asg := manual([]rtime.Time{0, 10}, []rtime.Time{10, 40})

	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "x"}, {Name: "y"}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	s, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placements[b.ID].Start != 16 {
		t.Fatalf("bus start = %d, want 16", s.Placements[b.ID].Start)
	}

	p.Net = arch.NewNetwork(2).SetLink(0, 1, 0)
	s2, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Placements[b.ID].Start != 10 {
		t.Errorf("linked start = %d, want 10", s2.Placements[b.ID].Start)
	}
	if err := Verify(g, p, asg, s2); err != nil {
		t.Errorf("Verify with network: %v", err)
	}
}
