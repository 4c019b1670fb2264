package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/slicing"
	"repro/internal/verify"
	"repro/internal/wcet"
)

// replayer calls the layers' public functions in process, serially, in
// the order a POST /plan runs them, with a span around each call. Its
// builders mirror pland's default configuration.
type replayer struct {
	t        *tracer
	plain    *pipeline.Builder // no verifier
	verified *pipeline.Builder // analytic verifier
	handler  http.Handler      // an in-process pland
	ws       *sched.Scratch
	// reqs numbers the replayed requests (and sweep's graphs) for span
	// IDs; bodies and bodyBytes count the request bodies read.
	reqs, bodies, bodyBytes int
}

func newReplayer(t *tracer) *replayer {
	cache := pipeline.NewCache(4096)
	b := pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(wcet.AVG),
		Distributor: deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()},
		Dispatcher:  pipeline.TimeDriven(),
		Cache:       cache,
	}
	v := b
	v.Verifier = verify.AnalyticVerifier()
	return &replayer{
		t: t, plain: &b, verified: &v,
		handler: server.New(server.Options{}).Handler(),
		ws:      &sched.Scratch{},
	}
}

// generate regenerates an input under a gen.generate span.
func (r *replayer) generate(cfg gen.Config) (*gen.Workload, error) {
	id := r.t.begin("gen.generate", 0, 0, cfg.MaxTasks)
	w, err := gen.Generate(cfg)
	r.t.end(id)
	return w, err
}

// request replays one POST /plan body through read, fingerprint and
// probe, then on a miss through estimate, slice, dispatch and (when
// asked) the analytic proof, and finally encodes the answer. It returns
// the request ID its spans carry.
func (r *replayer) request(body []byte, verified bool, tasks int) (int, error) {
	t := r.t
	r.reqs++
	r.bodies++
	r.bodyBytes += len(body)
	req := r.reqs
	root := t.begin("request", req, 0, tasks)
	defer t.end(root)

	id := t.begin("graphio.read", req, root, tasks)
	g, p, err := graphio.ReadWorkload(bytes.NewReader(body))
	t.end(id)
	if err != nil {
		return req, err
	}
	id = t.begin("pipeline.fingerprint", req, root, tasks)
	pipeline.Fingerprint(g, p)
	t.end(id)

	b := r.plain
	if verified {
		b = r.verified
	}
	spec := pipeline.Spec{Graph: g, Platform: p}
	id = t.begin("pipeline.probe", req, root, tasks)
	plan, _, err := b.Probe(spec)
	t.end(id)
	if err != nil {
		return req, err
	}
	resp := server.PlanResponse{Metric: wantMetric, WCET: wcet.AVG.String(), Dispatcher: pipeline.TimeDriven().Name, Quality: "full"}
	var asg *slicing.Assignment
	var s *sched.Schedule
	if plan != nil {
		asg, s = plan.Assignment, plan.Schedule
		resp.PlanningMS = float64(plan.Stats.Total()) / float64(time.Millisecond)
	} else {
		id = t.begin("pipeline.estimate", req, root, tasks)
		est, err := pipeline.Estimate(g, p, wcet.AVG)
		t.end(id)
		if err != nil {
			return req, err
		}
		id = t.begin("slicing.slice", req, root, tasks)
		asg, err = pipeline.Slice(g, est, p.M(), slicing.AdaptL(), slicing.CalibratedParams())
		t.end(id)
		if err != nil {
			return req, err
		}
		t.note(id, asg.Rounds, "")
		id = t.begin("sched.dispatch", req, root, tasks)
		s, err = sched.DispatchScratch(g, p, asg, sched.EDFPolicy, r.ws)
		t.end(id)
		if err != nil {
			return req, err
		}
		t.note(id, 0, feasibleOutcome(s.Feasible))
		if verified {
			id = t.begin("verify.analyze", req, root, tasks)
			res, err := verify.Analyze(g, p, asg)
			t.end(id)
			if err != nil {
				return req, err
			}
			t.note(id, res.Rounds, res.Verdict.String())
		}
	}
	resp.Feasible, resp.MaxLateness = s.Feasible, int64(s.MaxLateness)
	id = t.begin("graphio.encode", req, root, tasks)
	resp.Result = graphio.EncodeResult(asg, s)
	_, err = json.Marshal(resp)
	t.end(id)
	return req, err
}

func feasibleOutcome(ok bool) string {
	if ok {
		return "feasible"
	}
	return "infeasible"
}

// install makes the plan of body resident in the replayer's cache and
// in its in-process pland, without spans, as set-up does for the hot
// set.
func (r *replayer) install(body []byte) error {
	g, p, err := graphio.ReadWorkload(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if _, err := r.plain.Build(pipeline.Spec{Graph: g, Platform: p}); err != nil {
		return err
	}
	return r.serve(body, "")
}

// serve posts body to the in-process pland's handler and checks the
// status.
func (r *replayer) serve(body []byte, query string) error {
	target := "/plan"
	if query != "" {
		target += "?" + query
	}
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process plan: status %d: %.200s", rec.Code, rec.Body.String())
	}
	return nil
}

// handle times one in-process ServeHTTP of body as request req.
func (r *replayer) handle(req int, body []byte, query string, tasks int) error {
	id := r.t.begin("server.handler", req, 0, tasks)
	err := r.serve(body, query)
	r.t.end(id)
	return err
}

// ladderSizes and ladderPerSize shape the size ladder: graphs every
// traced run replays through the full cold path, so each layer and
// size split has a value even where the workload's own inputs never
// reach it.
var ladderSizes = []int{40, 120, 240}

const ladderPerSize = 8

// ladder replays the size ladder with ladder-tagged spans.
func (r *replayer) ladder(seed int64) error {
	r.t.ladder = true
	defer func() { r.t.ladder = false }()
	for _, n := range ladderSizes {
		for i := 0; i < ladderPerSize; i++ {
			w, err := r.generate(genConfig(gen.SubSeed(seed, 1_000_000+n*ladderPerSize+i), n))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
				return err
			}
			req, err := r.request(buf.Bytes(), true, n)
			if err != nil {
				return err
			}
			if err := r.handle(req, buf.Bytes(), "verify=analytic", n); err != nil {
				return err
			}
		}
	}
	return nil
}
