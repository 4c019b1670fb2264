package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

const (
	// sweepGraphs is the per-point sample of one timed slicebench run.
	sweepGraphs = 16
	// sweepSLO is the time one figure run must beat to count as attained.
	sweepSLO = time.Second
	// refSeed is slicebench's default master seed; its Figure 2 table at
	// sweepGraphs graphs per point is checked in as sweep_fig2.csv.
	refSeed = 19990412
)

// sweepFig is the figure every timed run regenerates, under a new
// master seed each time: Figure 2 sweeps the system size from 2 to 8
// processors and compares all four slicing metrics (PURE, NORM, ADAPT-G,
// ADAPT-L) on 40–60-task graphs. One figure keeps every run the same
// size, so the run latencies have one mode.
const sweepFig = 2

//go:embed testdata/sweep_fig2.csv
var refTable []byte

// figRun is one timed slicebench child process.
type figRun struct {
	fig   int
	seed  int64
	gap   time.Duration // since the previous child exited (generator lag)
	wall  time.Duration
	cpu   time.Duration
	rssKB int64
	out   []byte
	err   error
}

// shapes caches each figure's table at one graph per point, for its
// axis and series names.
var shapes = map[int]experiment.Table{}

func shape(fig int) experiment.Table {
	t, ok := shapes[fig]
	if !ok {
		t = experiment.Figures[fig](experiment.Options{NumGraphs: 1, Workers: 1})
		shapes[fig] = t
	}
	return t
}

// plans is how many (graph, metric) plans one run of fig makes.
func plans(fig int) int {
	t := shape(fig)
	return len(t.Series) * len(t.XValues) * sweepGraphs
}

// slicebench runs one child and waits for it.
func slicebench(ctx context.Context, bin string, fig int, graphs int, seed int64, workers int) figRun {
	r := figRun{fig: fig, seed: seed}
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "slicebench"), "-fig", strconv.Itoa(fig),
		"-graphs", strconv.Itoa(graphs), "-seed", strconv.FormatInt(seed, 10),
		"-workers", strconv.Itoa(workers), "-csv")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = diesWithParent()
	start := time.Now()
	err := cmd.Run()
	r.wall = time.Since(start)
	r.out = out.Bytes()
	if err != nil {
		r.err = fmt.Errorf("slicebench -fig %d -seed %d: %v: %s", fig, seed, err, errb.String())
	}
	if st := cmd.ProcessState; st != nil {
		r.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	return r
}

// checkTable checks one slicebench CSV table for shape: the figure's x
// axis, the four metrics in order, and success ratios that are whole
// multiples of 1/graphs.
func checkTable(fig int, graphs int, csv []byte) error {
	want := shape(fig)
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 1+len(want.Series) {
		return fmt.Errorf("figure %d: %d lines, want %d", fig, len(lines), 1+len(want.Series))
	}
	if h := "series," + strings.Join(want.XValues, ","); lines[0] != h {
		return fmt.Errorf("figure %d: header %q, want %q", fig, lines[0], h)
	}
	for i, s := range want.Series {
		f := strings.Split(lines[1+i], ",")
		if f[0] != s.Name || len(f) != 1+len(want.XValues) {
			return fmt.Errorf("figure %d: row %q, want series %s with %d points", fig, lines[1+i], s.Name, len(want.XValues))
		}
		for _, v := range f[1:] {
			x, err := strconv.ParseFloat(v, 64)
			k := x * float64(graphs)
			if err != nil || x < 0 || x > 1 || math.Abs(k-math.Round(k)) > 1e-3*float64(graphs) {
				return fmt.Errorf("figure %d: %s success ratio %q is not k/%d", fig, s.Name, v, graphs)
			}
		}
	}
	return nil
}

// inProcess computes fig's table in this process with one worker, three
// times, and returns its CSV and the median time the computation took.
func inProcess(fig int, seed int64) ([]byte, time.Duration) {
	var csv []byte
	var times []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		t := experiment.Figures[fig](experiment.Options{NumGraphs: sweepGraphs, MasterSeed: seed, Workers: 1})
		times = append(times, float64(time.Since(start)))
		csv = []byte(experiment.FormatTableCSV(t))
	}
	return csv, time.Duration(median(times))
}

// runSweep times slicebench runs (see sweepWindow). After the window
// it checks every table, recomputes each phase's first table in
// process, and compares the reference seed's table with the checked-in
// one.
func runSweep(ctx context.Context, cfg config) (*report, error) {
	var setup [2][]float64
	setUp := func(group int) error {
		for i := 0; i < setupRepeats; i++ {
			time.Sleep(setupPause)
			r := slicebench(ctx, cfg.bin, 2, 1, cfg.seed, 1)
			if r.err != nil {
				return r.err
			}
			setup[group] = append(setup[group], r.wall.Seconds())
		}
		return nil
	}
	if err := setUp(0); err != nil {
		return nil, err
	}

	phases, stealShare := sweepWindow(ctx, cfg)
	fmt.Fprintf(os.Stderr, "perfbench: sweep: the hypervisor stole %.1f%% of the window's CPU\n", 100*stealShare)
	if err := setUp(1); err != nil {
		return nil, err
	}
	rep := &report{e2e: metrics{}, layer: metrics{}}
	var cpu, window time.Duration
	var rssKB int64
	var lags []float64
	var inProc time.Duration
	attained, runs, good := 0, 0, 0
	var first error
	for ph, suffix := range []string{"", ".peak"} {
		var lat []float64
		for i, r := range phases[ph] {
			n := plans(r.fig)
			rep.attempted += n
			runs++
			lags = append(lags, float64(r.gap)/float64(time.Millisecond))
			cpu += r.cpu
			rssKB = max(rssKB, r.rssKB)
			err := r.err
			if err == nil {
				err = checkTable(r.fig, sweepGraphs, r.out)
			}
			if err == nil && i == 0 {
				var got []byte
				got, inProc = inProcess(r.fig, r.seed)
				if !bytes.Equal(got, r.out) {
					err = fmt.Errorf("figure %d seed %d: slicebench table differs from the in-process one", r.fig, r.seed)
				}
			}
			lat = append(lat, float64(r.wall)/float64(time.Millisecond))
			window += r.wall + r.gap
			if err != nil {
				rep.failed += n
				if first == nil {
					first = err
				}
				continue
			}
			good += n
			if r.wall <= sweepSLO {
				attained++
			}
		}
		s := sorted(lat)
		p, v := tail(s, tailCap)
		rep.e2e.set("latency_p50_ms"+suffix, percentile(s, 50), "ms")
		if ph == 0 {
			rep.e2e.set("latency_tail_ms", v, "ms")
		}
		fmt.Fprintf(os.Stderr, "perfbench: sweep %s: %d figure runs: p50 %.3fms, p%.1f %.3fms\n",
			[]string{"nominal (1 worker)", "peak"}[ph], len(s), percentile(s, 50), p, v)
	}
	ref := slicebench(ctx, cfg.bin, 2, sweepGraphs, refSeed, cfg.workers)
	rep.attempted += plans(2)
	if err := ref.err; err != nil || !bytes.Equal(ref.out, refTable) {
		rep.failed += plans(2)
		if first == nil {
			first = fmt.Errorf("reference Figure 2 table (seed %d) differs from testdata/sweep_fig2.csv (%v)", refSeed, err)
		}
	}
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", first)
	}
	rep.e2e.set("setup_s", setupSeconds(setup), "s")
	rep.e2e.set("slo_attainment", float64(attained)/float64(runs), "ratio")
	rep.e2e.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(max(good, 1)), "ms")
	rep.e2e.set("peak_rss_mb", float64(rssKB)/1024, "MiB")
	rep.e2e.set("graphs_per_s", float64(good)/window.Seconds(), "1/s")
	if cfg.trace {
		rep.layer.set("loadgen.steal_share", stealShare, "ratio")
		if err := sweepLayers(cfg, rep, lags, inProc); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sweepWindow runs slicebench back to back for the timed window,
// alternating one worker (nominal) and every CPU (peak), so a slow
// spell of the shared machine lands on both phases, with a new master
// seed per run. It returns the runs of each phase and the share of the
// window's CPU the hypervisor stole.
func sweepWindow(ctx context.Context, cfg config) ([2][]figRun, float64) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	var phases [2][]figRun
	steal0, start := stolen(), time.Now()
	last := start
	for k := 0; k < 2 || time.Since(start) < window; k++ {
		ph := k % 2
		gap := time.Since(last)
		r := slicebench(ctx, cfg.bin, sweepFig, sweepGraphs, gen.SubSeed(cfg.seed, k), []int{1, cfg.workers}[ph])
		last = time.Now()
		r.gap = gap
		phases[ph] = append(phases[ph], r)
	}
	return phases, float64(stolen()-steal0) / float64(time.Since(start)*time.Duration(runtime.NumCPU()))
}

// sweepLayers fills sweep's per-layer metrics. sweep has no server,
// cache or fleet, so those report zero; the traced replay regenerates
// the first timed run's Figure 2 graphs and plans each with every metric.
func sweepLayers(cfg config, rep *report, lags []float64, inProc time.Duration) error {
	m := rep.layer
	m.set("pipeline.cache_hit_ratio", 0, "ratio")
	m.set("pipeline.builds_per_kreq", 1000, "count")
	m.set("pipeline.cached_plans", 0, "count")
	for _, st := range []string{"estimate", "slice", "dispatch", "verify"} {
		m.set("server.stage_us."+st, 0, "us")
	}
	m.set("cluster.routed_share", 0, "ratio")
	m.set("cluster.fallbacks", 0, "count")
	m.set("cluster.hop_ms", 0, "ms")
	m.set("loadgen.lag_p99_ms", percentile(sorted(lags), 99), "ms")

	var r *replayer
	t, overhead, err := tracedReplay(func(on bool) (*tracer, time.Duration, error) {
		t := newTracer(on)
		r = newReplayer(t)
		start := time.Now()
		if err := sweepPass(r, gen.SubSeed(cfg.seed, 0)); err != nil {
			return nil, 0, err
		}
		if err := r.ladder(cfg.seed); err != nil {
			return nil, 0, err
		}
		return t, time.Since(start), nil
	})
	if err != nil {
		return err
	}
	m.set("graphio.body_kb", float64(r.bodyBytes)/1024/float64(r.bodies), "KiB")
	traceMetrics(t.spans, m)
	m.set("trace.overhead_share", overhead, "ratio")
	// Outside the layers, for sweep: one figure run as a child process
	// (start-up, worker pool, CSV) beyond the same table computed in
	// process with one worker.
	m.set("net.outside_us", 1000*rep.e2e["latency_p50_ms"].Value-float64(inProc)/float64(time.Microsecond), "us")
	return t.write(cfg.tracePath())
}

// sweepPass replays Figure 2's graphs for master seed: each is
// generated, estimated once, and sliced and dispatched under every
// metric, as experiment.Run plans it.
func sweepPass(r *replayer, seed int64) error {
	t := r.t
	for idx := 0; idx < sweepGraphs; idx++ {
		for m := 2; m <= 8; m++ {
			cfg := gen.Default(m)
			cfg.OLR = experiment.DefaultOLR
			cfg.Seed = gen.SubSeed(seed, idx)
			w, err := r.generate(cfg)
			if err != nil {
				return err
			}
			g, p := w.Graph, w.Platform
			n := g.NumTasks()
			r.reqs++
			root := t.begin("graph", r.reqs, 0, n)
			id := t.begin("pipeline.estimate", r.reqs, root, n)
			est, err := pipeline.Estimate(g, p, wcet.AVG)
			t.end(id)
			if err != nil {
				return err
			}
			for _, metric := range slicing.Metrics() {
				id = t.begin("slicing.slice", r.reqs, root, n)
				asg, err := pipeline.Slice(g, est, p.M(), metric, slicing.CalibratedParams())
				t.end(id)
				if err != nil {
					return err
				}
				t.note(id, asg.Rounds, "")
				id = t.begin("sched.dispatch", r.reqs, root, n)
				s, err := sched.DispatchScratch(g, p, asg, sched.EDFPolicy, r.ws)
				t.end(id)
				if err != nil {
					return err
				}
				t.note(id, 0, feasibleOutcome(s.Feasible))
			}
			t.end(root)
		}
	}
	return nil
}
