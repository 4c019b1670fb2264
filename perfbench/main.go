// Command perfbench is the repository's benchmark. One load-generating
// process drives the planner through a named workload, checks every
// output, and prints the end-to-end metrics as the last line of its
// output; with -trace 1 it also replays the workload's inputs in
// process with a span around each layer call and prints the per-layer
// metrics instead.
//
//	bash perfbench/run.sh --workload hot-set --seed 1 --seconds 24 --trace 0
//
// run.sh builds cmd/pland, cmd/slicebench and this command from source
// and then runs it. Workloads: hot-set and fresh drive pland over HTTP,
// sweep runs cmd/slicebench. README.md lists every metric, its layer,
// and which end-to-end metric each layer metric should move.
//
// Exit status: 0 when every output checked, 1 when a check failed or
// the system could not be run, 2 on bad flags, 3 when the generator fell
// behind its schedule and the run is invalid.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

// set records a metric. JSON has no NaN or infinity; a figure over an
// empty sample reads 0.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// report is one run's outcome: how many operations (requests, or graphs
// in sweep) were attempted and failed, and the two metric sets.
type report struct {
	attempted, failed int
	e2e, layer        metrics
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the built pland and slicebench
	out      string // directory the span log is written to
	workers  int    // generator threads and connections
}

func (c config) tracePath() string {
	return filepath.Join(c.out, fmt.Sprintf("trace-%s-%d.jsonl", c.workload, c.seed))
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == idlePollArg {
		os.Exit(idlePoll())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: hot-set, fresh or sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced in-process replay")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built pland and slicebench")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the span log is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)

	stopIdlePoll := startIdlePoll()
	defer stopIdlePoll()
	ctx := context.Background()
	var rep *report
	var err error
	switch cfg.workload {
	case hotSet.name:
		rep, err = hotSet.run(ctx, cfg)
	case fresh.name:
		rep, err = fresh.run(ctx, cfg)
	case "sweep":
		rep, err = runSweep(ctx, cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want hot-set, fresh or sweep)\n", cfg.workload)
		return 2
	}
	var invalid *invalidError
	switch {
	case errors.As(err, &invalid):
		fmt.Fprintln(stderr, "perfbench: invalid run:", err)
		return 3
	case err != nil:
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if cfg.trace {
		out.Metrics = rep.layer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
