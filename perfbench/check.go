package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"

	"repro/internal/arch"
	"repro/internal/graphio"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// wantMetric is the slicing metric every served request asks for (the
// server's default).
var wantMetric = slicing.AdaptL().Name()

// checkPlan decodes one POST /plan answer for workload (g, p) and checks
// it for meaning: the windows are checked against the graph with
// slicing's own invariants, the schedule is rebuilt from the result and
// passed through sched.Verify, and the verdict fields are recomputed
// from the windows, placements and deadlines. verified says the request
// asked for the analytic proof.
func checkPlan(g *taskgraph.Graph, p *arch.Platform, body []byte, verified bool) error {
	var resp server.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Metric != wantMetric || resp.Result.Metric != wantMetric {
		return fmt.Errorf("metric %q/%q, want %s", resp.Metric, resp.Result.Metric, wantMetric)
	}
	if resp.Quality != "full" {
		return fmt.Errorf("quality %q, want full", resp.Quality)
	}
	if err := checkResult(g, p, resp.Result, resp.OverConstrained); err != nil {
		return err
	}
	if resp.Feasible != resp.Result.Feasible || resp.MaxLateness != int64(resp.Result.MaxLateness) {
		return fmt.Errorf("response verdict (feasible %v, lateness %d) disagrees with its result (%v, %d)",
			resp.Feasible, resp.MaxLateness, resp.Result.Feasible, resp.Result.MaxLateness)
	}
	switch {
	case !verified && resp.Proof != "":
		return fmt.Errorf("proof %q on an unverified request", resp.Proof)
	case verified && resp.Proof != "accepted" && resp.Proof != "rejected" && resp.Proof != "inconclusive":
		return fmt.Errorf("proof %q, want accepted, rejected or inconclusive", resp.Proof)
	case resp.Proof == "accepted" && !resp.Feasible:
		return fmt.Errorf("proof accepted an infeasible schedule")
	case resp.ProvablyInfeasible != (resp.Proof == "rejected"):
		return fmt.Errorf("provablyInfeasible %v with proof %q", resp.ProvablyInfeasible, resp.Proof)
	}
	return nil
}

// checkResult rebuilds the window assignment and schedule of one result
// and checks both against the workload. overConstrained is the answer's
// claim that the E-T-E deadlines left some window empty or overlapping;
// it must match the windows, and windows that are not over-constrained
// must pass slicing.Assignment.Validate: no window overlaps a
// successor's, and no output's deadline passes its E-T-E deadline.
func checkResult(g *taskgraph.Graph, p *arch.Platform, r graphio.ResultJSON, overConstrained bool) error {
	n := g.NumTasks()
	for name, l := range map[string]int{
		"arrival": len(r.Arrival), "absDeadline": len(r.AbsDeadline),
		"proc": len(r.Proc), "start": len(r.Start), "finish": len(r.Finish),
	} {
		if l != n {
			return fmt.Errorf("result has %d %s entries for %d tasks", l, name, n)
		}
	}
	s := &sched.Schedule{Placements: make([]sched.Placement, n)}
	feasible := true
	maxLate, makespan := -rtime.Infinity, rtime.Time(0)
	for i := 0; i < n; i++ {
		pl := sched.Placement{Proc: r.Proc[i], Start: r.Start[i], Finish: r.Finish[i]}
		if pl.Proc < -1 || pl.Proc >= p.M() {
			return fmt.Errorf("task %d on processor %d of %d", i, pl.Proc, p.M())
		}
		s.Placements[i] = pl
		if pl.Proc < 0 {
			feasible = false
			continue
		}
		if pl.Finish > r.AbsDeadline[i] {
			feasible = false
		}
		maxLate = max(maxLate, pl.Finish-r.AbsDeadline[i])
		makespan = max(makespan, pl.Finish)
	}
	asg := &slicing.Assignment{Arrival: r.Arrival, AbsDeadline: r.AbsDeadline, MetricName: r.Metric}
	if over := overlapping(g, asg); over != overConstrained {
		return fmt.Errorf("answer says overConstrained=%v, windows say %v", overConstrained, over)
	}
	asg.OverConstrained = overConstrained
	if err := asg.Validate(g); err != nil {
		return err
	}
	if err := sched.Verify(g, p, asg, s); err != nil {
		return err
	}
	switch {
	case r.Feasible != feasible:
		return fmt.Errorf("result says feasible=%v, placements say %v", r.Feasible, feasible)
	case r.MaxLateness != maxLate:
		return fmt.Errorf("result says maxLateness=%d, placements say %d", r.MaxLateness, maxLate)
	case r.Makespan != makespan:
		return fmt.Errorf("result says makespan=%d, placements say %d", r.Makespan, makespan)
	}
	return nil
}

// overlapping reports whether asg is over-constrained as the slicer
// defines it: some window is empty, or the windows of some precedence
// arc overlap.
func overlapping(g *taskgraph.Graph, asg *slicing.Assignment) bool {
	for i := range asg.Arrival {
		if asg.AbsDeadline[i] <= asg.Arrival[i] {
			return true
		}
	}
	for _, arc := range g.Arcs() {
		if asg.AbsDeadline[arc.From] > asg.Arrival[arc.To] {
			return true
		}
	}
	return false
}

// planningMS matches the one field of a plan answer that may differ
// between two answers carrying the same plan.
var planningMS = regexp.MustCompile(`"planningMS":\s*[-+0-9.eE]+`)

// canonical returns body with its planningMS value blanked, for byte
// comparison of two answers that carry the same plan.
func canonical(body []byte) []byte {
	return planningMS.ReplaceAll(bytes.TrimSpace(body), []byte(`"planningMS":_`))
}
