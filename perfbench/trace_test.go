package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two children overlapping on [20, 30]: together they cover
		// [10, 40], 30 units, not 20+20.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		// A child with a nested grandchild: the grandchild is charged
		// to the child, and the parent loses the child's whole span.
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 80},
		{ID: 5, Parent: 4, Name: "d", Start: 55, End: 65},
		// A child running past its parent's end only counts inside it.
		{ID: 6, Parent: 5, Name: "e", Start: 60, End: 70},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 30, 20, 20, 30 - 10, 10 - 5, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {20, 30}, {22, 25}, {-5, 2}, {95, 200}}
	if got := covered(0, 100, ivs); got != 10+10+5 {
		t.Errorf("covered = %d, want 25", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 1, 0, 10)
	tr.note(id, 3, "accept")
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Errorf("tracer off recorded span %d, %d spans", id, len(tr.spans))
	}
}

func TestUnattributedIsHandlerMinusChildren(t *testing.T) {
	// Two requests, each with a handler span of 100 and children of
	// 10+5+20+15 = 50 self time; the second also ran a proof of 8 that
	// the first did not, so it is weighted by half.
	var spans []span
	add := func(s span) int {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s.ID
	}
	for req := 1; req <= 2; req++ {
		root := add(span{Req: req, Name: "request", Start: 0, End: 60})
		at := int64(0)
		for _, c := range []struct {
			name string
			d    int64
		}{{"graphio.read", 10}, {"pipeline.fingerprint", 5}, {"pipeline.probe", 20}, {"graphio.encode", 15}} {
			add(span{Req: req, Parent: root, Name: c.name, Start: at, End: at + c.d})
			at += c.d
		}
		if req == 2 {
			add(span{Req: req, Parent: root, Name: "verify.analyze", Start: 50, End: 58})
		}
		add(span{Req: req, Name: "server.handler", Start: 100, End: 200})
	}
	sp := newSpanPool(spans)
	got := sp.unattributedUS(sp.pick("server.handler", "")) * 1000 // µs → ns
	if want := 100.0 - 50 - 8.0/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributed = %v ns, want %v", got, want)
	}
}
