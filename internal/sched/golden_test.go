package sched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// The golden schedule table pins every scheduler in this package to the
// exact schedule it produces on a fixed corpus: one digest line per
// (graph, scheduler) pair covering placements, dispatch order, missed
// set, feasibility, maximum lateness and makespan. Regenerate with
//
//	go test ./internal/sched -run TestGoldenSchedules -update
//
// only when an intentional behavior change is being made.
var update = flag.Bool("update", false, "rewrite the golden schedule table")

// goldenGraph is one corpus entry: a generator setup and its label.
type goldenGraph struct {
	name string
	cfg  gen.Config
}

// goldenGraphs returns the corpus: the paper's workload at 40, 120 and
// 240 tasks under a relaxed and a tight end-to-end deadline, plus pinned
// (with frequent ineligibility) and resource-bearing setups.
func goldenGraphs() []goldenGraph {
	var out []goldenGraph
	for _, n := range []int{40, 120, 240} {
		for _, olr := range []float64{0.3, 0.8} {
			for _, seed := range []int64{7, 8} {
				cfg := gen.Default(3)
				cfg.Seed = seed
				cfg.OLR = olr
				cfg.MinTasks, cfg.MaxTasks = n, n
				out = append(out, goldenGraph{fmt.Sprintf("n%d-olr%g-s%d", n, olr, seed), cfg})
			}
		}
	}
	for _, seed := range []int64{3, 4} {
		cfg := gen.Default(5)
		cfg.Seed = seed
		cfg.PinProb = 0.5
		cfg.IneligibleProb = 0.2
		out = append(out, goldenGraph{fmt.Sprintf("pinned-s%d", seed), cfg})

		cfg = gen.Default(4)
		cfg.Seed = seed
		cfg.NumResources = 3
		cfg.ResourceProb = 0.4
		out = append(out, goldenGraph{fmt.Sprintf("resources-s%d", seed), cfg})
	}
	return out
}

// digest renders one schedule (or the scheduler's error) as a golden
// line: the scalar verdict in the clear, and an FNV-64a sum over every
// placement, the dispatch order and the missed set.
func digest(s *Schedule, err error) string {
	if err != nil {
		return "error" // the schedule is pinned, not the message
	}
	h := fnv.New64a()
	for _, pl := range s.Placements {
		fmt.Fprintf(h, "%d:%d:%d,", pl.Proc, pl.Start, pl.Finish)
	}
	fmt.Fprintf(h, "|%v|%v", s.Order, s.Missed)
	return fmt.Sprintf("feasible=%v missed=%d maxLate=%d makespan=%d sum=%016x",
		s.Feasible, len(s.Missed), s.MaxLateness, s.Makespan, h.Sum64())
}

func TestGoldenSchedules(t *testing.T) {
	var sb strings.Builder
	for _, gg := range goldenGraphs() {
		w := gen.MustGenerate(gg.cfg)
		g, p := w.Graph, w.Platform
		est, err := wcet.Estimates(g, p, wcet.AVG)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := slicing.Distribute(g, est, p.M(), slicing.AdaptL(), slicing.CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumTasks()
		half := make([]float64, n)
		random := make([]float64, n)
		rng := rand.New(rand.NewSource(gg.cfg.Seed))
		for i := range half {
			half[i] = 0.5
			random[i] = 0.3 + 0.7*rng.Float64()
		}

		line := func(name string, s *Schedule, err error) {
			fmt.Fprintf(&sb, "%s %s %s\n", gg.name, name, digest(s, err))
		}
		for _, pol := range Policies {
			s, err := DispatchScratch(g, p, asg, pol, nil)
			line("time-driven/"+pol.String(), s, err)
		}
		for _, fr := range []struct {
			name string
			frac []float64
		}{{"1", fullFrac(n)}, {"0.5", half}, {"random", random}} {
			s, err := DispatchActual(g, p, asg, fr.frac)
			line("actual/"+fr.name, s, err)
		}
		s, err := ListEDF(g, p, asg, Reserve, nil)
		line("planner", s, err)
		s, err = ListEDF(g, p, asg, Backfill, nil)
		line("insertion", s, err)
		ps, err := DispatchPreemptive(g, p, asg)
		if err != nil {
			line("preemptive", nil, err)
		} else {
			line("preemptive", &ps.Schedule, nil)
		}
	}

	path := filepath.Join("testdata", "golden_schedules.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != sb.String() {
		t.Errorf("schedules drifted from %s:\n--- want\n%s--- got\n%s", path, want, sb.String())
	}
}
