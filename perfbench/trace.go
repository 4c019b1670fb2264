package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	// Tasks is the size of the graph the call worked on; Ladder marks
	// spans of the size ladder rather than of the workload's own inputs.
	Tasks  int  `json:"tasks"`
	Ladder bool `json:"ladder,omitempty"`
	// Rounds and Outcome carry what the call reported: slicing and
	// proof rounds, the schedule's feasibility, the proof's verdict.
	Rounds  int    `json:"rounds,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// tracer keeps spans in memory. When off, begin and end do nothing, so
// the same replay code measures tracing overhead by running both ways.
type tracer struct {
	on     bool
	ladder bool // tags the spans begun while set
	epoch  time.Time
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, req, parent, tasks int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch)), Tasks: tasks, Ladder: t.ladder,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// note records what the call of span id reported.
func (t *tracer) note(id, rounds int, outcome string) {
	if id == 0 {
		return
	}
	t.spans[id-1].Rounds, t.spans[id-1].Outcome = rounds, outcome
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover, in ns, indexed like spans. Children that
// overlap each other are counted once; a child's own children are
// already inside the child and do not reach the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
