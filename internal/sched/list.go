package sched

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// ListMode selects how the offline list scheduler places each task on
// the per-processor timelines.
type ListMode int

const (
	// Reserve is the paper's planner (§5.4): a task starts after the last
	// task already on its processor, the processor with the earliest
	// start wins (ties: earliest finish, then lowest ID), and ready
	// tasks tie on deadline break by earlier arrival, then lower ID.
	Reserve ListMode = iota
	// Backfill is the insertion variant: a task takes the first idle
	// gap of a processor timeline that fits it, the processor with the
	// earliest finish wins (ties: earliest start, then lowest ID), and
	// ready tasks tie on deadline break by lower ID. Backfilling recovers
	// the capacity that reservation wastes when windows are staggered,
	// at O(n) gap scanning per placement — overall O(n²·m), the bound of
	// the paper's baseline. It does not support exclusive resources.
	Backfill
)

// ListEDF is the offline greedy EDF list scheduler: it repeatedly
// commits the ready task (all predecessors committed) with the closest
// absolute deadline to the eligible processor mode prefers, accounting
// for per-class execution times, communication cost over the network,
// the task's arrival time, and exclusive resources. The sched package
// does not care how the assignment was produced; any assignment with one
// window per task works.
//
// ws is reusable working memory (nil allocates internally). The schedule
// is identical for any scratch state and never aliases it.
func ListEDF(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, mode ListMode, ws *Scratch) (*Schedule, error) {
	if mode == Backfill && numResources(g) > 0 {
		return nil, fmt.Errorf("sched: backfilling does not support exclusive resources; use Dispatch or Reserve")
	}
	s, err := newSchedule(g, asg)
	if err != nil {
		return nil, err
	}
	n, m := g.NumTasks(), p.M()
	if ws == nil {
		ws = &Scratch{}
	}
	ws.ensureList(g, n)
	resFree, predsLeft, ready := ws.resFree, ws.predsLeft, ws.ready
	timeline := ws.timelines(m) // sorted, non-overlapping busy spans
	for i := 0; i < n; i++ {
		predsLeft[i] = int32(len(g.Preds(i)))
		if predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}

	scheduled := 0
	for len(ready) > 0 {
		sel := mode.selectReady(asg, ready)
		t := ready[sel]
		ready = append(ready[:sel], ready[sel+1:]...)
		task := g.Task(t)

		// floor is the processor-independent earliest start: the
		// arrival time and the release of every resource t needs.
		floor := asg.Arrival[t]
		for _, res := range task.Resources {
			floor = rtime.Max(floor, resFree[res])
		}
		bestProc, bestIdx := -1, 0
		var bestStart, bestFinish rtime.Time
		for q := 0; q < m; q++ {
			if task.Pinned >= 0 && q != task.Pinned {
				continue // strict locality constraint (§1)
			}
			class := p.ClassOf(q)
			if !task.EligibleOn(class) {
				continue
			}
			rdy := floor
			for _, pr := range g.Preds(t) {
				pl := s.Placements[pr]
				if pl.Proc < 0 {
					continue // unplaceable predecessor; precedence moot
				}
				rdy = rtime.Max(rdy, pl.Finish+p.CommCost(pl.Proc, q, g.MessageItems(pr, t)))
			}
			c := task.WCET[class]
			start, idx := mode.fit(timeline[q], rdy, c)
			if finish := start + c; bestProc < 0 || mode.better(start, finish, bestStart, bestFinish) {
				bestProc, bestIdx, bestStart, bestFinish = q, idx, start, finish
			}
		}

		if bestProc >= 0 {
			s.Placements[t] = Placement{Proc: bestProc, Start: bestStart, Finish: bestFinish}
			tl := append(timeline[bestProc], ispan{})
			copy(tl[bestIdx+1:], tl[bestIdx:])
			tl[bestIdx] = ispan{bestStart, bestFinish}
			timeline[bestProc] = tl
			for _, res := range task.Resources {
				resFree[res] = bestFinish
			}
		}
		s.Order = append(s.Order, t)
		scheduled++
		for _, u := range g.Succs(t) {
			predsLeft[u]--
			if predsLeft[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("sched: scheduled %d of %d tasks (precedence cycle?)", scheduled, n)
	}
	s.Account(asg.AbsDeadline)
	return s, nil
}

// selectReady returns the index in ready of the task to commit next:
// the closest absolute deadline, then (Reserve only) the earlier
// arrival, then the lower ID — a strict total order, so the scan order
// of the ready list cannot change the winner.
func (mode ListMode) selectReady(asg *slicing.Assignment, ready []int) int {
	deadline, arrival := asg.AbsDeadline, asg.Arrival
	sel := 0
	for j := 1; j < len(ready); j++ {
		a, b := ready[j], ready[sel]
		if deadline[a] != deadline[b] {
			if deadline[a] < deadline[b] {
				sel = j
			}
		} else if mode == Reserve && arrival[a] != arrival[b] {
			if arrival[a] < arrival[b] {
				sel = j
			}
		} else if a < b {
			sel = j
		}
	}
	return sel
}

// fit returns the earliest start ≥ ready of a task of length c on a
// processor with busy spans tl, and the index at which its span keeps tl
// sorted.
func (mode ListMode) fit(tl []ispan, ready, c rtime.Time) (rtime.Time, int) {
	if mode == Reserve {
		end := rtime.Time(0)
		if len(tl) > 0 {
			end = tl[len(tl)-1].end
		}
		return rtime.Max(ready, end), len(tl)
	}
	t := ready
	for k, sp := range tl {
		if t+c <= sp.start {
			return t, k
		}
		t = rtime.Max(t, sp.end)
	}
	return t, len(tl)
}

// better reports whether a candidate processor placement beats the best
// so far. Reserve prefers the earlier start (the paper's baseline), ties
// going to the earlier finish (heterogeneity). Backfill prefers the
// earlier finish: backfilling onto a slower class for a marginally
// earlier start is the classic multiprocessor anomaly, and finishing time
// is what deadlines and successors see.
func (mode ListMode) better(start, finish, bestStart, bestFinish rtime.Time) bool {
	if mode == Reserve {
		return start < bestStart || (start == bestStart && finish < bestFinish)
	}
	return finish < bestFinish || (finish == bestFinish && start < bestStart)
}
