package sched

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Slice is one contiguous execution interval of a (possibly preempted)
// task.
type Slice struct {
	Task       int
	Proc       int
	Start, End rtime.Time
}

// PreemptiveSchedule extends Schedule with the execution slices of a
// preemptive run.
type PreemptiveSchedule struct {
	Schedule
	// Slices lists every execution interval in start order; a task that
	// was never preempted has exactly one slice.
	Slices []Slice
	// Preemptions counts events where an unfinished running task lost
	// its processor.
	Preemptions int
	// Migrations counts resumptions on a different processor.
	Migrations int
}

// DispatchPreemptive simulates a global preemptive EDF dispatcher with
// migration — the policy direction the paper's future work (§7.3)
// points at: the slicing technique itself is not tied to non-preemptive
// dispatching.
//
// At every instant the m earliest-deadline ready tasks execute; a task
// prefers to stay on its previous processor, but may resume on another
// eligible one, in which case its remaining execution time is rescaled
// by the ratio of the per-class WCETs (ceiling division, so migration is
// never optimistic). Arrival gating and message delays are as in
// Dispatch: a task is ready on processor q only once its window has
// opened and every predecessor's message has landed on q.
func DispatchPreemptive(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (*PreemptiveSchedule, error) {
	if numResources(g) > 0 {
		// Holding an exclusive resource across a preemption would need a
		// locking protocol (PCP/SRP), out of scope for this dispatcher.
		return nil, fmt.Errorf("sched: DispatchPreemptive does not support exclusive resources; use Dispatch")
	}
	base, err := newSchedule(g, asg)
	if err != nil {
		return nil, err
	}
	s := &PreemptiveSchedule{Schedule: *base}
	n, m := g.NumTasks(), p.M()
	var (
		remaining = make([]rtime.Time, n) // work left, in units of lastProc's class
		lastProc  = make([]int, n)        // processor of the most recent slice, -1 never ran
		started   = make([]rtime.Time, n) // first start
		finished  = make([]bool, n)
		doomed    = make([]bool, n)
		running   = make([]int, m) // task per processor, -1 idle
	)
	for i := range lastProc {
		lastProc[i] = -1
		started[i] = rtime.Unset
	}
	for q := range running {
		running[q] = -1
	}

	present := p.ClassesPresent()
	done := 0
	for i := 0; i < n; i++ {
		if minExec(g.Task(i), p, present) == rtime.Infinity {
			doomed[i] = true
			done++
		}
	}

	readyOn := func(i, q int) rtime.Time {
		t := asg.Arrival[i]
		for _, pr := range g.Preds(i) {
			if doomed[pr] {
				continue
			}
			if !finished[pr] {
				return rtime.Unset
			}
			pl := s.Placements[pr]
			arrive := pl.Finish + p.CommCost(pl.Proc, q, g.MessageItems(pr, i))
			if arrive > t {
				t = arrive
			}
		}
		return t
	}

	// rescale converts remaining work when a task moves between classes.
	rescale := func(rem rtime.Time, i, fromProc, toProc int) rtime.Time {
		cf := g.Task(i).WCET[p.ClassOf(fromProc)]
		ct := g.Task(i).WCET[p.ClassOf(toProc)]
		if cf == ct {
			return rem
		}
		out := (rem*ct + cf - 1) / cf // ceiling: migration never gains work
		if out < 1 {
			out = 1
		}
		return out
	}

	now := rtime.Time(0)
	sliceStart := make([]rtime.Time, m)
	emit := func(task, proc int, start, end rtime.Time) {
		if end <= start {
			return
		}
		if k := len(s.Slices) - 1; k >= 0 && s.Slices[k].Task == task &&
			s.Slices[k].Proc == proc && s.Slices[k].End == start {
			s.Slices[k].End = end
			return
		}
		s.Slices = append(s.Slices, Slice{Task: task, Proc: proc, Start: start, End: end})
	}

	edfLess := func(a, b int) bool {
		if asg.AbsDeadline[a] != asg.AbsDeadline[b] {
			return asg.AbsDeadline[a] < asg.AbsDeadline[b]
		}
		return a < b
	}

	for done < n {
		// Select the executing set: EDF over every task that is ready on
		// at least one processor; each task prefers its previous
		// processor, then the eligible free one with the least (rescaled)
		// remaining work.
		var active []int
		for i := 0; i < n; i++ {
			if !finished[i] && !doomed[i] {
				active = append(active, i)
			}
		}
		sort.Slice(active, func(a, b int) bool { return edfLess(active[a], active[b]) })

		assigned := make([]int, m) // task per proc for this round
		for q := range assigned {
			assigned[q] = -1
		}
		taken := make([]bool, m)
		for _, i := range active {
			task := g.Task(i)
			pick := -1
			var pickRem rtime.Time
			// Prefer the previous processor when usable.
			if lp := lastProc[i]; lp >= 0 && !taken[lp] {
				// (A pinned task's lastProc is always its pin.)
				if r := readyOn(i, lp); r.IsSet() && r <= now {
					pick, pickRem = lp, remaining[i]
				}
			}
			if pick < 0 {
				for q := 0; q < m; q++ {
					if task.Pinned >= 0 && q != task.Pinned {
						continue
					}
					if taken[q] || !task.EligibleOn(p.ClassOf(q)) {
						continue
					}
					r := readyOn(i, q)
					if !r.IsSet() || r > now {
						continue
					}
					var rem rtime.Time
					if lastProc[i] < 0 {
						rem = task.WCET[p.ClassOf(q)]
					} else {
						rem = rescale(remaining[i], i, lastProc[i], q)
					}
					if pick < 0 || rem < pickRem || (rem == pickRem && q < pick) {
						pick, pickRem = q, rem
					}
				}
			}
			if pick < 0 {
				continue
			}
			if lastProc[i] >= 0 && lastProc[i] != pick {
				s.Migrations++
			}
			if lastProc[i] != pick {
				remaining[i] = pickRem
			}
			lastProc[i] = pick
			assigned[pick] = i
			taken[pick] = true
			if !started[i].IsSet() {
				started[i] = now
			}
		}

		// Commit the context switches.
		for q := 0; q < m; q++ {
			if running[q] == assigned[q] {
				continue
			}
			if running[q] >= 0 {
				emit(running[q], q, sliceStart[q], now)
				if !finished[running[q]] {
					s.Preemptions++
				}
			}
			running[q] = assigned[q]
			sliceStart[q] = now
		}

		// Next event: a completion, an arrival, or a message landing for
		// a waiting task.
		next := rtime.Infinity
		for q := 0; q < m; q++ {
			if running[q] >= 0 {
				if t := now + remaining[running[q]]; t < next {
					next = t
				}
			}
		}
		for i := 0; i < n; i++ {
			if finished[i] || doomed[i] {
				continue
			}
			for q := 0; q < m; q++ {
				if g.Task(i).Pinned >= 0 && q != g.Task(i).Pinned {
					continue
				}
				if !g.Task(i).EligibleOn(p.ClassOf(q)) {
					continue
				}
				if r := readyOn(i, q); r.IsSet() && r > now && r < next {
					next = r
				}
			}
		}
		if next == rtime.Infinity {
			break // the rest can never start (stuck behind unplaceable predecessors)
		}

		delta := next - now
		for q := 0; q < m; q++ {
			i := running[q]
			if i < 0 {
				continue
			}
			remaining[i] -= delta
			if remaining[i] == 0 {
				emit(i, q, sliceStart[q], next)
				finished[i] = true
				done++
				running[q] = -1
				s.Placements[i] = Placement{Proc: q, Start: started[i], Finish: next}
				s.Order = append(s.Order, i)
			}
		}
		now = next
	}
	s.Account(asg.AbsDeadline)
	return s, nil
}
