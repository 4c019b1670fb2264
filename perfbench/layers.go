package main

import "time"

// timedLayers are the span names whose p50 self time is reported as
// "<name>_us"; the split ones are also reported per size class.
var (
	timedLayers = []string{
		"gen.generate", "graphio.read", "pipeline.fingerprint", "pipeline.probe",
		"pipeline.estimate", "slicing.slice", "sched.dispatch", "verify.analyze",
		"graphio.encode", "server.handler",
	}
	splitLayers = []string{"pipeline.estimate", "slicing.slice", "sched.dispatch", "verify.analyze"}
)

// spanPool answers per-layer questions over one traced pass. Each
// question is asked of the workload's own spans of that layer (and size
// class) when there are any, and of the size ladder's otherwise.
type spanPool struct {
	spans []span
	self  []int64
}

func newSpanPool(spans []span) *spanPool {
	return &spanPool{spans: spans, self: selfTimes(spans)}
}

// pick returns the indices of the spans a layer metric is computed
// from: name's spans of class (any class when empty), the workload's
// own when it has any, else the ladder's.
func (sp *spanPool) pick(name, class string) []int {
	var own, ladder []int
	for i, s := range sp.spans {
		if s.Name != name || (class != "" && sizeClass(s.Tasks) != class) {
			continue
		}
		if s.Ladder {
			ladder = append(ladder, i)
		} else {
			own = append(own, i)
		}
	}
	if len(own) > 0 {
		return own
	}
	return ladder
}

// selfUS is the p50 self time of spans idx, in µs.
func (sp *spanPool) selfUS(idx []int) float64 {
	xs := make([]float64, len(idx))
	for k, i := range idx {
		xs[k] = float64(sp.self[i]) / float64(time.Microsecond)
	}
	return median(xs)
}

// unattributedUS is the in-process handler's p50 minus the p50 self
// times of the layers a request runs through, each weighted by the
// share of requests that ran it: what ServeHTTP spends outside every
// public function the replay times (body read, admission bookkeeping,
// writeJSON). Only requests that also have a handler span count.
func (sp *spanPool) unattributedUS(handlers []int) float64 {
	reqs := map[int]bool{}
	for _, i := range handlers {
		reqs[sp.spans[i].Req] = true
	}
	roots := map[int]bool{}
	for _, s := range sp.spans {
		if s.Name == "request" && reqs[s.Req] {
			roots[s.ID] = true
		}
	}
	byName := map[string][]int{}
	for i, s := range sp.spans {
		if roots[s.Parent] {
			byName[s.Name] = append(byName[s.Name], i)
		}
	}
	children := 0.0
	for _, idx := range byName {
		children += sp.selfUS(idx) * float64(len(idx)) / float64(len(roots))
	}
	return sp.selfUS(handlers) - children
}

// meanRounds is the mean of the Rounds the spans idx recorded.
func (sp *spanPool) meanRounds(idx []int) float64 {
	xs := make([]float64, len(idx))
	for k, i := range idx {
		xs[k] = float64(sp.spans[i].Rounds)
	}
	return mean(xs)
}

// share is the fraction of spans idx whose call reported outcome.
func (sp *spanPool) share(idx []int, outcome string) float64 {
	if len(idx) == 0 {
		return 0
	}
	n := 0
	for _, i := range idx {
		if sp.spans[i].Outcome == outcome {
			n++
		}
	}
	return float64(n) / float64(len(idx))
}

// traceMetrics fills the per-layer metrics one traced pass measures.
func traceMetrics(spans []span, m metrics) {
	sp := newSpanPool(spans)
	for _, name := range timedLayers {
		m.set(name+"_us", sp.selfUS(sp.pick(name, "")), "us")
	}
	for _, name := range splitLayers {
		for _, n := range ladderSizes {
			class := sizeClass(n)
			m.set(name+"_us."+class, sp.selfUS(sp.pick(name, class)), "us")
		}
	}
	m.set("server.unattributed_us", sp.unattributedUS(sp.pick("server.handler", "")), "us")
	m.set("slicing.rounds", sp.meanRounds(sp.pick("slicing.slice", "")), "count")
	m.set("sched.feasible_ratio", sp.share(sp.pick("sched.dispatch", ""), "feasible"), "ratio")
	proofs := sp.pick("verify.analyze", "")
	m.set("verify.rounds", sp.meanRounds(proofs), "count")
	m.set("verify.accept_ratio", sp.share(proofs, "accept"), "ratio")
	m.set("verify.inconclusive_ratio", sp.share(proofs, "inconclusive"), "ratio")
}
