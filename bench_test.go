package repro

import (
	"fmt"
	"testing"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/experiment"
	"repro/internal/feas"
	"repro/internal/gen"
	"repro/internal/optsched"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/trace"
	"repro/internal/wcet"
)

// ---------------------------------------------------------------------
// Figure benchmarks: one per evaluation figure of the paper. Each
// iteration regenerates the figure on a reduced sample (the full 1024
// graphs/point run is cmd/slicebench); the reported custom metric
// "succ/point" is the mean success ratio over the figure, so regressions
// in *results*, not just speed, show up in benchmark diffs.
// ---------------------------------------------------------------------

func benchFigure(b *testing.B, fig int) {
	b.Helper()
	opts := experiment.DefaultOptions()
	opts.NumGraphs = 8
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		table := experiment.Figures[fig](opts)
		var sum float64
		var cells int
		for _, s := range table.Series {
			for _, p := range s.Points {
				sum += p.Success.Value()
				cells++
			}
		}
		mean = sum / float64(cells)
	}
	b.ReportMetric(mean, "succ/point")
}

// BenchmarkFig2SystemSize regenerates Figure 2: success ratio vs system
// size (m = 2..8) for all four metrics.
func BenchmarkFig2SystemSize(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFig3OLR regenerates Figure 3: success ratio vs deadline
// tightness (OLR sweep) at m = 3.
func BenchmarkFig3OLR(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFig4ETD regenerates Figure 4: success ratio vs execution time
// distribution at m = 3.
func BenchmarkFig4ETD(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFig5WCETOLR regenerates Figure 5: ADAPT-L success ratio vs
// OLR under the three WCET estimation strategies.
func BenchmarkFig5WCETOLR(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFig6WCETETD regenerates Figure 6: ADAPT-L success ratio vs
// ETD under the three WCET estimation strategies.
func BenchmarkFig6WCETETD(b *testing.B) { benchFigure(b, 6) }

// ---------------------------------------------------------------------
// Pipeline-stage micro-benchmarks on a fixed paper-sized workload.
// ---------------------------------------------------------------------

func benchWorkload(b *testing.B, m int) (*Workload, []Time) {
	b.Helper()
	cfg := gen.Default(m)
	cfg.Seed = 12345
	cfg.OLR = experiment.DefaultOLR
	w, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		b.Fatal(err)
	}
	return w, est
}

// BenchmarkGenerate measures the §5.2 workload generator.
func BenchmarkGenerate(b *testing.B) {
	cfg := gen.Default(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistribute measures the slicing algorithm per metric on a
// paper-sized graph (the ADAPT-L case includes the parallel-set usage;
// the closure itself is paid at Freeze).
func BenchmarkDistribute(b *testing.B) {
	w, est := benchWorkload(b, 3)
	for _, metric := range slicing.Metrics() {
		b.Run(metric.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := slicing.Distribute(w.Graph, est, 3, metric, slicing.CalibratedParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulers measures the two scheduler variants.
func BenchmarkSchedulers(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Dispatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Dispatch(w.Graph, w.Platform, asg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PlanEDF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.ListEDF(w.Graph, w.Platform, asg, sched.Reserve, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplay measures the discrete-event replay under both bus
// models.
func BenchmarkReplay(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.Dispatch(w.Graph, w.Platform, asg)
	if err != nil {
		b.Fatal(err)
	}
	for _, serialized := range []bool{false, true} {
		b.Run(fmt.Sprintf("serialized=%v", serialized), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Replay(w.Graph, w.Platform, asg, s, sim.Options{SerializedBus: serialized}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the full generate-to-verify flow the
// experiment harness runs per workload, at each system size of Figure 2.
func BenchmarkPipeline(b *testing.B) {
	for _, m := range []int{2, 3, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			pipe := DefaultPipeline()
			cfg := DefaultWorkloadConfig(m)
			cfg.OLR = experiment.DefaultOLR
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = SubSeed(1, i)
				w, err := Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pipe.Run(w.Graph, w.Platform); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFreeze measures the derived-structure computation (topo
// order, transitive closure, parallel sets) that ADAPT-L's O(n³)
// complexity discussion (§7.2) refers to.
func BenchmarkFreeze(b *testing.B) {
	cfg := gen.Default(3)
	cfg.Seed = 777
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Regenerate to get an unfrozen graph; generation cost is part
		// of the loop for both, so report the delta via BenchmarkGenerate.
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimates measures the WCET estimation strategies.
func BenchmarkEstimates(b *testing.B) {
	w, _ := benchWorkload(b, 3)
	for _, s := range wcet.Strategies {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wcet.Estimates(w.Graph, w.Platform, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModeAblation compares the Consistent and Faithful constraint
// bookkeeping (the design decision DESIGN.md calls out).
func BenchmarkModeAblation(b *testing.B) {
	w, est := benchWorkload(b, 3)
	for _, mode := range []slicing.Mode{slicing.Consistent, slicing.Faithful} {
		b.Run(mode.String(), func(b *testing.B) {
			params := slicing.CalibratedParams()
			params.Mode = mode
			succ := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), params)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sched.Dispatch(w.Graph, w.Platform, asg)
				if err != nil {
					b.Fatal(err)
				}
				if s.Feasible {
					succ++
				}
			}
			b.ReportMetric(float64(succ)/float64(b.N), "feasible")
		})
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks: the §7.3 features and the exact yardstick.
// ---------------------------------------------------------------------

// BenchmarkExtensionSchedulers measures the insertion planner and the
// preemptive dispatcher against the same assignment as
// BenchmarkSchedulers.
func BenchmarkExtensionSchedulers(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("InsertEDF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.ListEDF(w.Graph, w.Platform, asg, sched.Backfill, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DispatchPreemptive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.DispatchPreemptive(w.Graph, w.Platform, asg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdaptR measures the resource-aware metric on a
// resource-bearing workload (includes the per-task conflict counting).
func BenchmarkAdaptR(b *testing.B) {
	cfg := gen.Default(3)
	cfg.Seed = 4242
	cfg.NumResources = 3
	cfg.ResourceProb = 0.3
	w, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptR(), slicing.CalibratedParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSmall measures the branch-and-bound scheduler on a
// 10-task instance (feasibility query with early stop).
func BenchmarkExactSmall(b *testing.B) {
	cfg := gen.Default(2)
	cfg.Seed = 31
	cfg.MinTasks, cfg.MaxTasks = 10, 10
	cfg.MinDepth, cfg.MaxDepth = 3, 4
	cfg.OLR = 0.6
	w, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := slicing.Distribute(w.Graph, est, 2, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := optsched.Schedule(w.Graph, w.Platform, asg,
			optsched.Options{NodeBudget: 500_000, StopAtFeasible: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Nodes), "nodes")
		}
	}
}

// BenchmarkShapes measures generation across the structural families.
func BenchmarkShapes(b *testing.B) {
	for _, shape := range gen.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			cfg := gen.Default(3)
			cfg.Shape = shape
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				if _, err := gen.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceLog measures event-log derivation.
func BenchmarkTraceLog(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.Dispatch(w.Graph, w.Platform, asg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trace.FromSchedule(w.Graph, w.Platform, asg, s)
	}
}

// BenchmarkLatenessStudy measures the §4.2 secondary-measure harness on
// a reduced sample.
func BenchmarkLatenessStudy(b *testing.B) {
	opts := experiment.DefaultOptions()
	opts.NumGraphs = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiment.LatenessStudy(opts)
	}
}

// BenchmarkFeasCheck measures the necessary-condition certificates on a
// paper-sized workload.
func BenchmarkFeasCheck(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := feas.Check(w.Graph, w.Platform, asg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealStep measures the annealing search at a small
// iteration budget (each iteration is one full slice+dispatch pipeline).
func BenchmarkAnnealStep(b *testing.B) {
	w, est := benchWorkload(b, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := anneal.Search(w.Graph, w.Platform, est, slicing.CalibratedParams(),
			anneal.Options{Iterations: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkDispatch compares dispatching over the pure shared
// bus against a platform with dedicated links (same workload).
func BenchmarkNetworkDispatch(b *testing.B) {
	w, est := benchWorkload(b, 3)
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Dispatch(w.Graph, w.Platform, asg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("links", func(b *testing.B) {
		linked := *w.Platform
		linked.Net = arch.NewNetwork(linked.M())
		for q := 1; q < linked.M(); q++ {
			linked.Net.SetLink(0, q, 0)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Dispatch(w.Graph, &linked, asg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
