package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/gen"
	"repro/internal/graphio"
)

// input is one generated workload: the generator seed and size it was
// drawn from and its serialized POST /plan body. The graph itself is
// regenerated from (seed, tasks) when a check needs it, so the run
// holds bodies only.
type input struct {
	seed  int64
	tasks int
	body  []byte
}

// genConfig is the generator family every served workload draws from:
// the paper's setup on three processors, at a fixed task count.
func genConfig(seed int64, tasks int) gen.Config {
	cfg := gen.Default(3)
	cfg.Seed = seed
	cfg.MinTasks, cfg.MaxTasks = tasks, tasks
	return cfg
}

// generate regenerates an input's workload.
func (in input) generate() (*gen.Workload, error) {
	return gen.Generate(genConfig(in.seed, in.tasks))
}

// makeInputs generates and serializes one input per (seed, tasks) pair
// with up to workers goroutines.
func makeInputs(seeds []int64, tasks []int, workers int) ([]input, error) {
	out := make([]input, len(seeds))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(seeds); i += workers {
				in := input{seed: seeds[i], tasks: tasks[i]}
				wl, err := in.generate()
				if err != nil {
					errs[w] = err
					return
				}
				var buf bytes.Buffer
				if err := graphio.WriteWorkload(&buf, wl.Graph, wl.Platform); err != nil {
					errs[w] = err
					return
				}
				in.body = buf.Bytes()
				out[i] = in
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate inputs: %w", err)
		}
	}
	return out, nil
}

// request is one timed POST /plan: which input it sends and whether it
// asks for the analytic proof.
type request struct {
	input    int
	verified bool
}

func (r request) query() string {
	if r.verified {
		return "verify=analytic"
	}
	return ""
}

// sizeClass names the task-count bin a per-layer split reports under.
func sizeClass(tasks int) string {
	switch {
	case tasks <= 80:
		return "n40"
	case tasks <= 180:
		return "n120"
	}
	return "n240"
}

// freshMix returns the task counts and proof flags of one block of n
// fresh requests: 40, 120 and 240 tasks for 40%, 40% and 20% of them,
// and the analytic proof on half, in an order drawn from rng. The shares
// are exact in every block, so the latency quantiles do not move with
// how the draws fell.
func freshMix(rng *rand.Rand, n int) (tasks []int, verified []bool) {
	n40 := int(math.Round(0.4 * float64(n)))
	n120 := int(math.Round(0.8*float64(n))) - n40
	tasks = make([]int, n)
	verified = make([]bool, n)
	for i := range tasks {
		switch {
		case i < n40:
			tasks[i] = 40
		case i < n40+n120:
			tasks[i] = 120
		default:
			tasks[i] = 240
		}
		verified[i] = i < n/2
	}
	rng.Shuffle(n, func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	rng.Shuffle(n, func(i, j int) { verified[i], verified[j] = verified[j], verified[i] })
	return tasks, verified
}
