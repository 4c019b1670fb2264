package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/server"
)

// servedPlan plans one generated workload through an in-process pland
// and returns the workload and the answer.
func servedPlan(t *testing.T, tasks int, query string) (*gen.Workload, []byte) {
	t.Helper()
	in := input{seed: 42, tasks: tasks}
	w, err := in.generate()
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	server.New(server.Options{}).Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/plan?"+query, &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", rec.Code, rec.Body)
	}
	return w, rec.Body.Bytes()
}

// mutate decodes an answer, applies f to it and re-encodes it.
func mutate(t *testing.T, body []byte, f func(*server.PlanResponse)) []byte {
	t.Helper()
	var resp server.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	f(&resp)
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckPlanAcceptsServedPlans(t *testing.T) {
	for _, c := range []struct {
		tasks    int
		verified bool
	}{{40, false}, {120, true}} {
		q := ""
		if c.verified {
			q = "verify=analytic"
		}
		w, body := servedPlan(t, c.tasks, q)
		if err := checkPlan(w.Graph, w.Platform, body, c.verified); err != nil {
			t.Errorf("%d tasks: %v", c.tasks, err)
		}
		if err := checkPlan(w.Graph, w.Platform, body, !c.verified); err == nil {
			t.Errorf("%d tasks: proof field not checked against the request", c.tasks)
		}
	}
}

func TestCheckPlanRejectsBrokenPlans(t *testing.T) {
	w, body := servedPlan(t, 40, "")
	m := w.Platform.M()
	cases := []struct {
		name, want string
		f          func(r *server.PlanResponse)
	}{
		{"processor out of range", "processor", func(r *server.PlanResponse) {
			r.Result.Proc[3] = m
		}},
		{"negative processor", "processor", func(r *server.PlanResponse) {
			r.Result.Proc[3] = -2
		}},
		{"overlapping tasks", "concurrently", func(r *server.PlanResponse) {
			// Slide a task forward until it overlaps the next task on
			// its processor; starting later keeps its arrival intact.
			res := &r.Result
			for a := range res.Proc {
				next := -1
				for b := range res.Proc {
					if b != a && res.Proc[b] == res.Proc[a] && res.Start[b] >= res.Finish[a] &&
						(next < 0 || res.Start[b] < res.Start[next]) {
						next = b
					}
				}
				if next >= 0 {
					d := res.Finish[a] - res.Start[a]
					res.Start[a] = res.Start[next] - d + 1
					res.Finish[a] = res.Start[a] + d
					return
				}
			}
			t.Fatal("no two tasks share a processor")
		}},
		{"start before arrival", "before arrival", func(r *server.PlanResponse) {
			res := &r.Result
			for i := range res.Proc {
				if res.Arrival[i] > 0 && res.Proc[i] >= 0 {
					d := res.Finish[i] - res.Start[i]
					res.Start[i] = res.Arrival[i] - 1
					res.Finish[i] = res.Start[i] + d
					return
				}
			}
			t.Fatal("no task with a positive arrival")
		}},
		{"flipped feasible", "feasible", func(r *server.PlanResponse) {
			r.Feasible = !r.Feasible
			r.Result.Feasible = !r.Result.Feasible
		}},
		{"response disagrees with result", "disagrees", func(r *server.PlanResponse) {
			r.Feasible = !r.Feasible
		}},
		{"wrong makespan", "makespan", func(r *server.PlanResponse) {
			r.Result.Makespan++
		}},
		{"missing placements", "entries", func(r *server.PlanResponse) {
			r.Result.Start = r.Result.Start[1:]
		}},
		{"output deadline past its E-T-E deadline", "E-T-E", func(r *server.PlanResponse) {
			out := w.Graph.Outputs()[0]
			r.Result.AbsDeadline[out] = w.Graph.Task(out).ETEDeadline + 1
		}},
		{"predecessor deadline past its successor's arrival", "overConstrained", func(r *server.PlanResponse) {
			arc := w.Graph.Arcs()[0]
			r.Result.AbsDeadline[arc.From] = r.Result.Arrival[arc.To] + 1
		}},
		{"over-constrained claimed for coherent windows", "overConstrained", func(r *server.PlanResponse) {
			r.OverConstrained = true
		}},
	}
	for _, c := range cases {
		err := checkPlan(w.Graph, w.Platform, mutate(t, body, c.f), false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestCanonicalIgnoresOnlyPlanningMS(t *testing.T) {
	_, body := servedPlan(t, 40, "")
	other := mutate(t, body, func(r *server.PlanResponse) { r.PlanningMS += 1.5 })
	indented := func(b []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "", "  "); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(canonical(indented(other)), canonical(body)) {
		t.Error("answers differing only in planningMS compare unequal")
	}
	changed := mutate(t, body, func(r *server.PlanResponse) { r.MinLaxity++ })
	if bytes.Equal(canonical(indented(changed)), canonical(body)) {
		t.Error("answers differing in minLaxity compare equal")
	}
}
