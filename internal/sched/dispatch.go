package sched

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Dispatch simulates the non-preemptive, time-driven task dispatching
// strategy of the paper (§1, §3.3) and is the baseline scheduler of the
// experiments: a work-conserving run-time dispatcher that, whenever a
// processor is idle, starts the ready task with the closest absolute
// deadline.
//
// A task is dispatchable on processor q at time t when its arrival time
// has been reached, all its predecessors have finished, and their
// messages have landed on q (finish + bus cost for remote predecessors).
// Unlike ListEDF (the planning variant in this package), the dispatcher has
// no lookahead: an idle processor takes the best currently-ready task
// even if a more urgent one arrives a moment later — the classic
// non-preemptive anomaly, and a genuine source of deadline misses that
// the deadline-distribution metrics compete to avoid.
func Dispatch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (*Schedule, error) {
	return DispatchScratch(g, p, asg, EDFPolicy, nil)
}

// DispatchScratch is Dispatch under any ready-task policy (§7.3's
// policy axis) running over reusable scratch memory (nil allocates
// internally). The schedule is identical for any scratch state and
// never aliases it.
func DispatchScratch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy, ws *Scratch) (*Schedule, error) {
	return dispatch(g, p, asg, policy, nil, ws)
}

// DispatchActual simulates the time-driven EDF dispatcher when tasks
// finish *earlier* than their worst-case bound: task i executes for
// ceil(frac[i] · WCET) time units on whichever class it lands on
// (minimum one unit). The paper's model treats cᵢ as an upper bound
// (§3.2), so at run time tasks may complete early — and, notoriously,
// earlier completions can *break* a non-preemptive schedule that was
// feasible under full WCETs (the Graham scheduling anomaly: finishing
// early changes which tasks are ready at each dispatch instant).
// DispatchActual makes that effect measurable.
//
// Deadline misses are still judged against the assigned windows. The
// returned schedule reflects actual execution, so it intentionally
// fails Verify's WCET-exactness check.
func DispatchActual(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, frac []float64) (*Schedule, error) {
	if n := g.NumTasks(); len(frac) != n {
		return nil, fmt.Errorf("sched: %d fractions for %d tasks", len(frac), n)
	}
	for i, f := range frac {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("sched: frac[%d] = %v outside (0, 1]", i, f)
		}
	}
	return dispatch(g, p, asg, EDFPolicy, frac, nil)
}

// dispatch is the one time-driven dispatcher behind every entry point
// above. frac, when non-nil, scales each task's execution time as
// DispatchActual describes: the dispatcher still chooses processors by
// WCET (it cannot know the actual time in advance), but the task
// commits its actual finish, which frees the processor and its
// resources and is where its messages leave from.
//
// Readiness is tracked incrementally instead of rescanning predecessors:
// landing[i·m+q] carries the latest message-landing time of task i on
// processor q (seeded with the arrival time, folded in as predecessors
// are placed), and predsLeft[i] counts unfinished predecessors — task i
// is dispatchable on q once predsLeft hits zero and
// max(landing[i·m+q], resource floor) has been reached.
func dispatch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy, frac []float64, ws *Scratch) (*Schedule, error) {
	s, err := newSchedule(g, asg)
	if err != nil {
		return nil, err
	}
	n, m := g.NumTasks(), p.M()
	if ws == nil {
		ws = &Scratch{}
	}
	ws.ensure(g, n, m)
	procFree, resFree := ws.procFree, ws.resFree
	done, minC := ws.done, ws.minC
	predsLeft, landing := ws.predsLeft, ws.landing
	placed := 0

	for i := 0; i < n; i++ {
		predsLeft[i] = int32(len(g.Preds(i)))
		a := asg.Arrival[i]
		for q := i * m; q < (i+1)*m; q++ {
			landing[q] = a
		}
	}

	// minExec pre-screens tasks that can never run; minC feeds the LLF
	// policy's dynamic laxity.
	present := p.ClassesPresent()
	for i := 0; i < n; i++ {
		if minC[i] = minExec(g.Task(i), p, present); minC[i] == rtime.Infinity {
			done[i] = true // treat as absent; successors become stuck too
			placed++
			// An unplaceable predecessor never finishes and never sends:
			// successors wait on it no further (they are doomed to stall
			// at Infinity unless every other input lands).
			for _, u := range g.Succs(i) {
				predsLeft[u]--
			}
		}
	}

	// resFloor is the release time of the latest exclusive resource task
	// i needs — processor-independent, so hoisted out of the q probe.
	resFloor := func(i int) rtime.Time {
		t := rtime.Time(0)
		for _, res := range g.Task(i).Resources {
			if resFree[res] > t {
				t = resFree[res]
			}
		}
		return t
	}

	// The ready list holds exactly the tasks with every predecessor
	// finished and not yet placed; tasks enter when their counter hits
	// zero and leave when placed. Scanning it instead of all n tasks
	// cannot change the outcome — the selection rule (policy key, then
	// task id) is a strict total order, so the winner is scan-order
	// independent.
	ready := ws.ready[:0]
	for i := 0; i < n; i++ {
		if !done[i] && predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}

	now := rtime.Time(0)
	for placed < n {
		// Dispatch loop at the current instant: repeatedly take the
		// EDF-closest task that is dispatchable on an idle processor.
		for {
			bestTask, bestProc, bestIdx := -1, -1, -1
			var bestFinish rtime.Time
			for ri, i := range ready {
				task := g.Task(i)
				// Skip unless strictly better under the policy before
				// probing processors.
				if bestTask >= 0 {
					ki := policy.key(asg, i, now, minC[i])
					kb := policy.key(asg, bestTask, now, minC[bestTask])
					if ki > kb || (ki == kb && i > bestTask) {
						continue
					}
				}
				floor := resFloor(i)
				if floor > now {
					continue
				}
				base := i * m
				tProc, tFinish := -1, rtime.Time(0)
				for q := 0; q < m; q++ {
					if task.Pinned >= 0 && q != task.Pinned {
						continue
					}
					if procFree[q] > now || landing[base+q] > now {
						continue
					}
					class := p.ClassOf(q)
					if !task.EligibleOn(class) {
						continue
					}
					finish := now + task.WCET[class]
					if tProc < 0 || finish < tFinish {
						tProc, tFinish = q, finish
					}
				}
				if tProc >= 0 {
					bestTask, bestProc, bestFinish, bestIdx = i, tProc, tFinish, ri
				}
			}
			if bestTask < 0 {
				break
			}
			finish := bestFinish
			if frac != nil {
				finish = now + actualTime(frac[bestTask], g.Task(bestTask).WCET[p.ClassOf(bestProc)])
			}
			s.Placements[bestTask] = Placement{Proc: bestProc, Start: now, Finish: finish}
			procFree[bestProc] = finish
			for _, res := range g.Task(bestTask).Resources {
				resFree[res] = finish
			}
			done[bestTask] = true
			placed++
			ready[bestIdx] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			s.Order = append(s.Order, bestTask)
			for _, u := range g.Succs(bestTask) {
				predsLeft[u]--
				if predsLeft[u] == 0 && !done[u] {
					ready = append(ready, u)
				}
				items := g.MessageItems(bestTask, u)
				ub := u * m
				for q := 0; q < m; q++ {
					if arrive := finish + p.CommCost(bestProc, q, items); arrive > landing[ub+q] {
						landing[ub+q] = arrive
					}
				}
			}
		}
		if placed == n {
			break
		}

		// Advance to the next instant anything can change: a processor
		// frees, a task arrives, or a message lands.
		next := rtime.Infinity
		for q := 0; q < m; q++ {
			if procFree[q] > now && procFree[q] < next {
				next = procFree[q]
			}
		}
		for _, i := range ready {
			task := g.Task(i)
			floor := resFloor(i)
			base := i * m
			for q := 0; q < m; q++ {
				if task.Pinned >= 0 && q != task.Pinned {
					continue
				}
				if !task.EligibleOn(p.ClassOf(q)) {
					continue
				}
				r := landing[base+q]
				if floor > r {
					r = floor
				}
				if r > now && r < next {
					next = r
				}
			}
		}
		if next == rtime.Infinity {
			break // the rest can never start (stuck behind unplaceable predecessors)
		}
		now = next
	}
	s.Account(asg.AbsDeadline)
	return s, nil
}

// minExec is the up-front eligibility screen of the time-driven and
// the preemptive dispatcher: the task's least execution time over the
// processors it may run on — its pin, or any present class it is
// eligible for (present is p.ClassesPresent()) — or rtime.Infinity when
// there is none and the task can never be placed.
func minExec(task *taskgraph.Task, p *arch.Platform, present []bool) rtime.Time {
	best := rtime.Infinity
	if pin := task.Pinned; pin >= 0 {
		if pin < p.M() {
			if c := task.WCET[p.ClassOf(pin)]; c.IsSet() {
				best = c
			}
		}
		return best
	}
	for k, c := range task.WCET {
		if c.IsSet() && k < len(present) && present[k] && c < best {
			best = c
		}
	}
	return best
}

// actualTime is ceil(f · c), at least one time unit.
func actualTime(f float64, c rtime.Time) rtime.Time {
	return rtime.Max(rtime.Time(math.Ceil(f*float64(c))), 1)
}
