package sched

import (
	"fmt"
	"sort"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// ResourceTable returns a release-time table sized for the largest
// resource index used by any task (empty when the application uses no
// exclusive resources). It is exported for the sim package's fault-
// injected executor, which replays the dispatcher's resource
// bookkeeping outside this package.
func ResourceTable(g *taskgraph.Graph) []rtime.Time {
	return make([]rtime.Time, numResources(g))
}

// numResources is one more than the largest resource index any task
// declares, 0 when no task needs an exclusive resource.
func numResources(g *taskgraph.Graph) int {
	n := 0
	for _, t := range g.Tasks() {
		for _, r := range t.Resources {
			n = max(n, r+1)
		}
	}
	return n
}

// verifyResources checks that no two tasks sharing an exclusive
// resource overlap in time; it is part of Verify and of sim.Replay's
// obligations for resource-bearing applications.
func verifyResources(g *taskgraph.Graph, s *Schedule) error {
	type hold struct {
		task       int
		start, end rtime.Time
	}
	perRes := map[int][]hold{}
	for i, t := range g.Tasks() {
		pl := s.Placements[i]
		if pl.Proc < 0 {
			continue
		}
		for _, r := range t.Resources {
			perRes[r] = append(perRes[r], hold{i, pl.Start, pl.Finish})
		}
	}
	for r, holds := range perRes {
		sort.Slice(holds, func(a, b int) bool { return holds[a].start < holds[b].start })
		for i := 1; i < len(holds); i++ {
			if holds[i].start < holds[i-1].end {
				return fmt.Errorf("sched: resource %d held by tasks %d and %d concurrently",
					r, holds[i-1].task, holds[i].task)
			}
		}
	}
	return nil
}
