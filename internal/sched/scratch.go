package sched

import (
	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// ispan is one busy interval of a processor timeline (ListEDF).
type ispan struct{ start, end rtime.Time }

// Scratch is the reusable working memory of the schedulers in this
// package: the dispatcher's ready/landing tables, and the list
// scheduler's ready queue and processor timelines. A zero Scratch
// is ready to use; it grows to the largest (tasks × processors) shape it
// has seen. A Scratch is not safe for concurrent use — pool instances
// (pipeline.BuildScratch does) instead of sharing one.
//
// Nothing reachable from a returned *Schedule aliases scratch memory:
// placements, order, and missed lists are freshly allocated per call.
type Scratch struct {
	procFree  []rtime.Time
	resFree   []rtime.Time
	done      []bool
	minC      []rtime.Time
	predsLeft []int32
	landing   []rtime.Time // n×m message-landing matrix
	ready     []int
	timeline  [][]ispan
}

// ensureList sizes the subset both schedulers share: resource release
// times, predecessor counters, and the ready queue.
func (ws *Scratch) ensureList(g *taskgraph.Graph, n int) {
	nres := numResources(g)
	if cap(ws.resFree) < nres {
		ws.resFree = make([]rtime.Time, nres)
	}
	ws.resFree = ws.resFree[:nres]
	for r := range ws.resFree {
		ws.resFree[r] = 0
	}

	if cap(ws.predsLeft) < n {
		ws.predsLeft = make([]int32, n)
	}
	ws.predsLeft = ws.predsLeft[:n]

	if cap(ws.ready) < n {
		ws.ready = make([]int, 0, n)
	}
	ws.ready = ws.ready[:0]
}

// ensure additionally sizes the dispatcher's idle-time, done, minC and
// landing tables.
func (ws *Scratch) ensure(g *taskgraph.Graph, n, m int) {
	ws.ensureList(g, n)

	if cap(ws.procFree) < m {
		ws.procFree = make([]rtime.Time, m)
	}
	ws.procFree = ws.procFree[:m]
	for q := range ws.procFree {
		ws.procFree[q] = 0
	}

	if cap(ws.done) < n {
		ws.done = make([]bool, n)
		ws.minC = make([]rtime.Time, n)
	}
	ws.done = ws.done[:n]
	ws.minC = ws.minC[:n]
	for i := 0; i < n; i++ {
		ws.done[i] = false
	}

	if cap(ws.landing) < n*m {
		ws.landing = make([]rtime.Time, n*m)
	}
	ws.landing = ws.landing[:n*m]
}

// timelines returns m empty per-processor timelines, reusing span
// storage from earlier runs.
func (ws *Scratch) timelines(m int) [][]ispan {
	if cap(ws.timeline) < m {
		tl := make([][]ispan, m)
		copy(tl, ws.timeline)
		ws.timeline = tl
	}
	ws.timeline = ws.timeline[:m]
	for q := range ws.timeline {
		ws.timeline[q] = ws.timeline[q][:0]
	}
	return ws.timeline
}
