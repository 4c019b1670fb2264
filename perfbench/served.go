package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// Open-loop rates, in requests per second. The window alternates
// blocks at the nominal and the peak rate. The closed-loop capacity,
// two clients sending each workload's requests back to back against a
// fresh set-up, measured 578 req/s for hot-set and 711 req/s for fresh
// (2 vCPU VM, linux/amd64, go1.24); the rates are about 28% and 40%,
// and 25% and 32%, of that. At 40% and 80% the peak blocks ran past the
// knee on that machine and their p50 ranged over 4–45 ms between seeds;
// at about 35% and 55% the peak tail still spread 20–40% between seeds
// whenever the machine's CPU was stolen in bursts. Peaks of 260 and 290
// req/s amplified the machine's slow spells into a peak p50 that spread
// up to 34% of its median over ten seeds.
const (
	hotNominal   = 160.0
	hotPeak      = 230.0
	freshNominal = 180.0
	freshPeak    = 230.0
)

const (
	// hotSetSize and hotTasks shape the hot set: distinct 120-task
	// workloads, each planned once during set-up.
	hotSetSize = 32
	hotTasks   = 120
	// slo is the latency a served answer must beat to count as attained.
	slo = 50 * time.Millisecond
	// setupRepeats is how many times one run sets the system up before
	// the window, the last set-up being the one measured, and again
	// after it; setup_s is the lower of the two groups' medians.
	setupRepeats = 11
	// setupPause is the idle time before each set-up. Back to back, a
	// 5 ms fresh set-up ran at about 3 or about 4.5 ms depending on
	// state left by the one before, and medians of 11 spread 23% over
	// runs on the 2-vCPU VM the benchmark was built on; each starting
	// from an idle machine, they spread 9%.
	setupPause = 100 * time.Millisecond
	// lagBound is the generator-lag p99 past which a run is invalid: the
	// generator, not the system under test, set the schedule.
	lagBound = 50 * time.Millisecond
)

// served describes one workload sent to pland.
type served struct {
	name          string
	peers         []string // one name per pland process; p0 takes all traffic
	nominal, peak float64
	replay        int // nominal requests a traced pass replays in process
}

var (
	hotSet = served{name: "hot-set", peers: []string{"p0", "p1"}, nominal: hotNominal, peak: hotPeak, replay: 300}
	fresh  = served{name: "fresh", peers: []string{"p0"}, nominal: freshNominal, peak: freshPeak, replay: 150}
)

// invalidError reports a run whose generator fell behind its schedule.
type invalidError struct{ msg string }

func (e *invalidError) Error() string { return e.msg }

// traffic is a served workload's generated inputs and the two phases'
// requests over them.
type traffic struct {
	inputs []input
	phases [2][]request
}

// makeTraffic generates w's inputs from the seed: the hot set plus
// draws from it, or one distinct workload per fresh request.
func (w served) makeTraffic(seed int64, seconds float64, workers int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	perPhase := blocks(seconds) / 2
	var seeds []int64
	var tasks []int
	tr := &traffic{}
	if w.name == hotSet.name {
		byOwner, err := w.hotSeeds(seed)
		if err != nil {
			return nil, err
		}
		for _, s := range append(byOwner[0], byOwner[1]...) {
			seeds, tasks = append(seeds, s), append(tasks, hotTasks)
		}
		// Each block sends exactly half its requests to workloads p1 owns,
		// each drawn uniformly from its owner's half of the hot set: the
		// routed requests take the hop and form a second, slower mode,
		// and a p50 on the edge between the two modes jumped with every
		// point the routed share moved.
		half := hotSetSize / 2
		for ph, rate := range []float64{w.nominal, w.peak} {
			for b := 0; b < perPhase; b++ {
				n := perBlock(rate)
				block := make([]request, n)
				for i := range block {
					block[i].input = rng.Intn(half)
					if i < n/2 {
						block[i].input += half
					}
				}
				rng.Shuffle(n, func(i, j int) { block[i], block[j] = block[j], block[i] })
				tr.phases[ph] = append(tr.phases[ph], block...)
			}
		}
	} else {
		for ph, rate := range []float64{w.nominal, w.peak} {
			for b := 0; b < perPhase; b++ {
				sizes, verified := freshMix(rng, perBlock(rate))
				for i, n := range sizes {
					in := len(seeds)
					seeds, tasks = append(seeds, gen.SubSeed(seed, in)), append(tasks, n)
					tr.phases[ph] = append(tr.phases[ph], request{input: in, verified: verified[i]})
				}
			}
		}
	}
	var err error
	tr.inputs, err = makeInputs(seeds, tasks, workers)
	return tr, err
}

// hotSeeds returns the hot set's generator seeds: the first
// hotSetSize/2 sub-seeds of seed whose workload p0 owns, and the first
// hotSetSize/2 whose workload p1 owns. The ring places keys by peer
// name, so the owners are known before any peer runs.
func (w served) hotSeeds(seed int64) ([2][]int64, error) {
	var byOwner [2][]int64
	urls := make([]string, len(w.peers))
	for i, name := range w.peers {
		urls[i] = "http://" + name
	}
	peers, err := cluster.ParsePeers(peersSpec(w.peers, urls))
	if err != nil {
		return byOwner, err
	}
	ring, err := cluster.NewRing(peers)
	if err != nil {
		return byOwner, err
	}
	half := hotSetSize / 2
	for i := 0; len(byOwner[0]) < half || len(byOwner[1]) < half; i++ {
		if i == 100*hotSetSize {
			return byOwner, fmt.Errorf("hot set: no %d workloads for each peer in %d draws", half, i)
		}
		s := gen.SubSeed(seed, i)
		wl, err := gen.Generate(genConfig(s, hotTasks))
		if err != nil {
			return byOwner, err
		}
		o := 0
		if ring.Owner(pipeline.Fingerprint(wl.Graph, wl.Platform)).Name != w.peers[0] {
			o = 1
		}
		if len(byOwner[o]) < half {
			byOwner[o] = append(byOwner[o], s)
		}
	}
	return byOwner, nil
}

// blocks is how many rate blocks a window of seconds holds: an even
// number, at least one per phase.
func blocks(seconds float64) int {
	return 2 * max(1, int(seconds/2/blockLen.Seconds()))
}

// servedRun is what one live run measured, before checking.
type servedRun struct {
	setup  [2][]float64 // seconds, one per set-up, before and after the window
	outs   [2][]outcome
	steal  [2][]time.Duration // CPU stolen by the hypervisor per block
	refs   map[int][]byte     // hot-set: canonical set-up answer per input
	cpu    time.Duration
	rssMB  float64
	before []map[string]float64 // /metrics at the window's start
	after  []map[string]float64 // and at its end
	ring   *cluster.Ring
}

// lagP99 is the p99 over the window of how late the generator released
// each request.
func (run *servedRun) lagP99() time.Duration {
	var lags []float64
	for _, outs := range run.outs {
		for _, o := range outs {
			lags = append(lags, float64(o.sent-o.due))
		}
	}
	return time.Duration(percentile(sorted(lags), 99))
}

// stealShare is the share of the window's CPU time the hypervisor
// stole.
func (run *servedRun) stealShare() float64 {
	var stolen time.Duration
	for _, st := range run.steal {
		for _, d := range st {
			stolen += d
		}
	}
	blocks := len(run.steal[0]) + len(run.steal[1])
	return float64(stolen) / float64(time.Duration(blocks)*blockLen*time.Duration(runtime.NumCPU()))
}

// setUp launches pland and, in hot-set, plans the hot set, storing each
// canonical answer in refs when it is not nil. It returns the running
// fleet and how long set-up took.
func (w served) setUp(ctx context.Context, c *http.Client, cfg config, tr *traffic, refs map[int][]byte) (fleet, float64, error) {
	defer c.CloseIdleConnections()
	start := time.Now()
	fl, err := launch(cfg.bin, w.peers)
	if err != nil {
		return nil, 0, err
	}
	if w.name == hotSet.name {
		for i := range tr.inputs {
			status, body, err := post(ctx, c, fl[0].url, tr.inputs[i].body, "")
			if err != nil || status != http.StatusOK {
				fl.stop()
				return nil, 0, fmt.Errorf("set-up plan %d: status %d, %v", i, status, err)
			}
			if refs != nil {
				refs[i] = canonical(body)
			}
		}
	}
	return fl, time.Since(start).Seconds(), nil
}

// live sets pland up setupRepeats times, drives the last set-up through
// both open-loop phases and scrapes it, then sets up setupRepeats times
// more.
func (w served) live(ctx context.Context, cfg config, tr *traffic) (*servedRun, error) {
	run := &servedRun{refs: map[int][]byte{}}
	c := newClient(cfg.workers)
	defer c.CloseIdleConnections()
	var fl fleet
	defer func() { fl.stop() }()
	setUps := func(group int, refs map[int][]byte) error {
		// Each group starts with the generator's garbage collected, so no
		// collection runs while pland starts.
		runtime.GC()
		for rep := 0; rep < setupRepeats; rep++ {
			fl.stop()
			time.Sleep(setupPause)
			var secs float64
			var err error
			if fl, secs, err = w.setUp(ctx, c, cfg, tr, refs); err != nil {
				return err
			}
			run.setup[group] = append(run.setup[group], secs)
		}
		return nil
	}
	if err := setUps(0, run.refs); err != nil {
		return nil, err
	}
	urls := make([]string, len(fl))
	for i, p := range fl {
		urls[i] = p.url
	}
	peers, err := cluster.ParsePeers(peersSpec(w.peers, urls))
	if err != nil {
		return nil, err
	}
	if run.ring, err = cluster.NewRing(peers); err != nil {
		return nil, err
	}

	if run.before, err = fl.scrapeAll(ctx, c); err != nil {
		return nil, err
	}
	cpu0, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	rates := [2]float64{w.nominal, w.peak}
	// The generator's own garbage collection would stall its schedule;
	// the window's allocations are small enough to defer it.
	gc := debug.SetGCPercent(-1)
	run.outs, run.steal = openLoop(ctx, c, fl[0].url, tr.phases, tr.inputs, rates, blocks(cfg.seconds), cfg.workers)
	debug.SetGCPercent(gc)
	cpu1, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	if run.after, err = fl.scrapeAll(ctx, c); err != nil {
		return nil, err
	}
	if run.rssMB, err = fl.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := setUps(1, nil); err != nil {
		return nil, err
	}
	return run, nil
}

// checked is the verdict on every timed answer.
type checked struct {
	ok     [2][]bool
	failed int
	first  error
}

// check verifies every timed answer after the window: a 200 whose plan
// passes checkPlan and, in hot-set, equals the set-up answer byte for
// byte apart from planningMS.
func (w served) check(tr *traffic, run *servedRun, workers int) *checked {
	res := &checked{}
	var mu sync.Mutex
	for ph := range run.outs {
		outs := run.outs[ph]
		res.ok[ph] = make([]bool, len(outs))
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; i < len(outs); i += workers {
					err := w.checkOne(tr, run, tr.phases[ph][i], outs[i])
					if err == nil {
						res.ok[ph][i] = true
						continue
					}
					mu.Lock()
					res.failed++
					if res.first == nil {
						res.first = fmt.Errorf("%s request %d: %w", []string{"nominal", "peak"}[ph], i, err)
					}
					mu.Unlock()
				}
			}(k)
		}
		wg.Wait()
	}
	return res
}

func (w served) checkOne(tr *traffic, run *servedRun, r request, o outcome) error {
	switch {
	case o.err != nil:
		return o.err
	case o.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	if ref, hot := run.refs[r.input]; hot && string(canonical(o.body)) != string(ref) {
		return fmt.Errorf("answer differs from the set-up plan of input %d", r.input)
	}
	wl, err := tr.inputs[r.input].generate()
	if err != nil {
		return err
	}
	return checkPlan(wl.Graph, wl.Platform, o.body, r.verified)
}

// run runs a served workload end to end and, with tracing, its
// in-process replay.
func (w served) run(ctx context.Context, cfg config) (*report, error) {
	tr, err := w.makeTraffic(cfg.seed, cfg.seconds, cfg.workers)
	if err != nil {
		return nil, err
	}
	run, err := w.live(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: the hypervisor stole %.1f%% of the window's CPU\n", w.name, 100*run.stealShare())
	if lag := run.lagP99(); lag > lagBound {
		return nil, &invalidError{fmt.Sprintf("%s: generator lag p99 %v exceeds %v", w.name, lag, lagBound)}
	}
	chk := w.check(tr, run, cfg.workers)
	if chk.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed answers; first: %v\n", chk.failed, chk.first)
	}
	rep := &report{
		attempted: len(run.outs[0]) + len(run.outs[1]),
		failed:    chk.failed,
		e2e:       metrics{},
		layer:     metrics{},
	}
	w.endToEnd(run, chk, rep)
	if cfg.trace {
		if err := w.layers(cfg, tr, run, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tailCap is the highest percentile the latency tail reports. A
// one-second block of the slowest phase holds 160 requests, 16 of them
// beyond p90; p95 and above moved with every burst of stolen CPU.
const tailCap = 90

// blockLatency returns the median, over the half of a phase's blocks
// that lost the least CPU to the hypervisor (see calmHalf), of each
// block's p50 and tail latency, in ms.
func blockLatency(outs []outcome, steal []time.Duration) (p50, tailMS float64) {
	byBlock := map[int][]float64{}
	for _, o := range outs {
		byBlock[o.block] = append(byBlock[o.block], float64(o.latency())/float64(time.Millisecond))
	}
	shares := make([]float64, len(steal))
	for b, d := range steal {
		shares[b] = float64(d) / float64(blockLen)
	}
	var p50s, tails []float64
	for _, b := range calmHalf(shares) {
		s := sorted(byBlock[b])
		_, v := tail(s, tailCap)
		p50s, tails = append(p50s, percentile(s, 50)), append(tails, v)
	}
	return median(p50s), median(tails)
}

// endToEnd derives the user-visible metrics of a checked live run.
func (w served) endToEnd(run *servedRun, chk *checked, rep *report) {
	var good, attained int
	var window time.Duration // from the first due time to the last answer
	for ph, suffix := range []string{"", ".peak"} {
		all := make([]float64, len(run.outs[ph]))
		for i, o := range run.outs[ph] {
			window = max(window, o.done)
			all[i] = float64(o.latency()) / float64(time.Millisecond)
			if chk.ok[ph][i] {
				good++
				if o.latency() <= slo {
					attained++
				}
			}
		}
		p50, tailMS := blockLatency(run.outs[ph], run.steal[ph])
		rep.e2e.set("latency_p50_ms"+suffix, p50, "ms")
		if ph == 0 {
			rep.e2e.set("latency_tail_ms", tailMS, "ms")
		}
		s := sorted(all)
		p, v := tail(s, 99)
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d requests at %.0f/s; block medians p50 %.3fms p90 %.3fms; pooled p%.1f %.3fms\n",
			w.name, []string{"nominal", "peak"}[ph], len(s), []float64{w.nominal, w.peak}[ph], p50, tailMS, p, v)
	}
	rep.e2e.set("setup_s", setupSeconds(run.setup), "s")
	rep.e2e.set("slo_attainment", float64(attained)/float64(rep.attempted), "ratio")
	rep.e2e.set("cpu_ms_per_op", float64(run.cpu)/float64(time.Millisecond)/float64(max(good, 1)), "ms")
	rep.e2e.set("peak_rss_mb", run.rssMB, "MiB")
	rep.e2e.set("graphs_per_s", float64(good)/window.Seconds(), "1/s")
}

// replayPass replays the run's inputs in process: in hot-set the
// set-up's cold plans and then hits, in fresh cold plans; then the size
// ladder. It returns the tracer and the pass's wall time.
func (w served) replayPass(tr *traffic, seed int64, on bool) (*tracer, time.Duration, error) {
	t := newTracer(on)
	r := newReplayer(t)
	start := time.Now()
	if w.name == hotSet.name {
		for _, in := range tr.inputs {
			if _, err := r.generate(genConfig(in.seed, in.tasks)); err != nil {
				return nil, 0, err
			}
			if _, err := r.request(in.body, false, in.tasks); err != nil {
				return nil, 0, err
			}
			if err := r.install(in.body); err != nil {
				return nil, 0, err
			}
		}
	}
	reqs := tr.phases[0]
	if len(reqs) > w.replay {
		reqs = reqs[:w.replay]
	}
	for _, rq := range reqs {
		in := tr.inputs[rq.input]
		if w.name == fresh.name {
			if _, err := r.generate(genConfig(in.seed, in.tasks)); err != nil {
				return nil, 0, err
			}
		}
		req, err := r.request(in.body, rq.verified, in.tasks)
		if err != nil {
			return nil, 0, err
		}
		if err := r.handle(req, in.body, rq.query(), in.tasks); err != nil {
			return nil, 0, err
		}
	}
	if err := r.ladder(seed); err != nil {
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// tracedReplay runs the replay twice with spans off and twice with
// them on, keeps the faster of each for the overhead share, and returns
// the last traced pass's spans.
func tracedReplay(pass func(on bool) (*tracer, time.Duration, error)) (*tracer, float64, error) {
	best := [2]time.Duration{}
	var last *tracer
	for k := 0; k < 4; k++ {
		on := k%2 == 1
		t, d, err := pass(on)
		if err != nil {
			return nil, 0, err
		}
		if i := k % 2; best[i] == 0 || d < best[i] {
			best[i] = d
		}
		if on {
			last = t
		}
	}
	return last, float64(best[1]-best[0]) / float64(best[0]), nil
}

// layers derives the per-layer metrics: the scraped server and fleet
// counters of the live run, and the traced replay.
func (w served) layers(cfg config, tr *traffic, run *servedRun, rep *report) error {
	m := rep.layer
	sent := float64(rep.attempted)
	hits := sumDelta(run.before, run.after, "pland_cache_hits_total")
	builds := sumDelta(run.before, run.after, "pland_builds_total")
	m.set("pipeline.cache_hit_ratio", hits/max(hits+builds, 1), "ratio")
	m.set("pipeline.builds_per_kreq", 1000*builds/sent, "count")
	m.set("pipeline.cached_plans", sumDelta(make([]map[string]float64, len(run.after)), run.after, "pland_cached_plans"), "count")
	// Stage time per cold build since the peers started, so hot-set's
	// set-up builds count too.
	zero := make([]map[string]float64, len(run.after))
	allBuilds := max(sumDelta(zero, run.after, "pland_builds_total"), 1)
	for _, st := range []string{"estimate", "slice", "dispatch", "verify"} {
		secs := sumDelta(zero, run.after, `pland_stage_seconds_total{stage="`+st+`"}`)
		m.set("server.stage_us."+st, 1e6*secs/allBuilds, "us")
	}
	m.set("cluster.routed_share", sumDelta(run.before, run.after, `pland_routed_total{direction="out"}`)/sent, "ratio")
	m.set("cluster.fallbacks", sumDelta(run.before, run.after, `pland_routed_total{direction="fallback"}`), "count")
	hop, err := w.hopMS(tr, run)
	if err != nil {
		return err
	}
	m.set("cluster.hop_ms", hop, "ms")

	var bodyKB float64
	for _, reqs := range tr.phases {
		for _, r := range reqs {
			bodyKB += float64(len(tr.inputs[r.input].body)) / 1024
		}
	}
	m.set("loadgen.lag_p99_ms", float64(run.lagP99())/float64(time.Millisecond), "ms")
	m.set("loadgen.steal_share", run.stealShare(), "ratio")
	m.set("graphio.body_kb", bodyKB/sent, "KiB")

	t, overhead, err := tracedReplay(func(on bool) (*tracer, time.Duration, error) {
		return w.replayPass(tr, cfg.seed, on)
	})
	if err != nil {
		return err
	}
	traceMetrics(t.spans, m)
	m.set("trace.overhead_share", overhead, "ratio")
	p50 := rep.e2e["latency_p50_ms"].Value
	m.set("net.outside_us", 1000*p50-m["server.handler_us"].Value, "us")
	return t.write(cfg.tracePath())
}

// hopMS is the nominal phase's p50 latency of keys p1 owns minus that of
// keys p0 owns: the cost of the route hop. It is 0 for one peer.
func (w served) hopMS(tr *traffic, run *servedRun) (float64, error) {
	if len(w.peers) < 2 {
		return 0, nil
	}
	owner := map[int]string{}
	for i, in := range tr.inputs {
		wl, err := in.generate()
		if err != nil {
			return 0, err
		}
		owner[i] = run.ring.Owner(pipeline.Fingerprint(wl.Graph, wl.Platform)).Name
	}
	lat := map[string][]float64{}
	for i, o := range run.outs[0] {
		name := owner[tr.phases[0][i].input]
		lat[name] = append(lat[name], float64(o.latency())/float64(time.Millisecond))
	}
	return median(lat[w.peers[1]]) - median(lat[w.peers[0]]), nil
}
