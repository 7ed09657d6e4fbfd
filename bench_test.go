// Package psaflow's root benchmark harness regenerates every table and
// figure of the paper's evaluation as Go benchmarks:
//
//	BenchmarkFig5/<app>          one full uninformed PSA-flow run per app,
//	                             reporting the Fig. 5 speedup bars as metrics
//	BenchmarkFig5Informed/<app>  the informed run (Auto-Selected bar)
//	BenchmarkTable1              the added-LOC analysis (Table I)
//	BenchmarkFig6                the cost trade-off curves (Fig. 6)
//	BenchmarkUnrollDSE           the Fig. 2 unroll-until-overmap meta-program
//	BenchmarkParse/<app>         the MiniC front end every job pays at submit
//
// Run with: go test -bench=. -benchmem
package psaflow_test

import (
	"context"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// BenchmarkFig5 runs the uninformed PSA-flow per benchmark and reports the
// five design speedups (the bars of Fig. 5) as custom metrics, plus the
// interpreter-substrate metrics the perf trajectory tracks: profiled-run
// cache hit rate and interpreter throughput (virtual ops per wall second).
//
// The cache-hit metric covers the benchmark's full Fig. 5 sweep — the
// uninformed and informed flows sharing one profiled-run cache, exactly
// as RunFig5 runs them — because a fresh per-flow cache yields a rate
// that is a structural constant of the flow (the same for every
// benchmark) instead of a property of the benchmark's sweep. The
// informed leg runs with the timer stopped, so ns/op and interp-Mops/s
// keep measuring the uninformed flow alone.
func BenchmarkFig5(b *testing.B) {
	for _, app := range bench.All() {
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			var results []experiments.DesignResult
			var hits, misses, ops int64
			for i := 0; i < b.N; i++ {
				rec := telemetry.New()
				runs := core.NewRunCache()
				var err error
				results, err = experiments.RunBenchmarkEnv(context.Background(), app, nil,
					tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy}, experiments.JobEnv{}, nil, rec, runs)
				if err != nil {
					b.Fatal(err)
				}
				ops += rec.Counter(telemetry.CounterInterpOps)
				b.StopTimer()
				if _, err := experiments.RunBenchmarkEnv(context.Background(), app, nil,
					tasks.FlowOptions{Mode: tasks.Informed, Strategy: tasks.DefaultStrategy}, experiments.JobEnv{}, nil, nil, runs); err != nil {
					b.Fatal(err)
				}
				h, m := runs.Stats()
				hits += h
				misses += m
				b.StartTimer()
			}
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit%")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(ops)/secs/1e6, "interp-Mops/s")
			}
			for _, r := range results {
				label := metricLabel(r.Design)
				if r.Infeasible {
					b.ReportMetric(0, label+"-overmap")
					continue
				}
				b.ReportMetric(r.Speedup, label)
			}
		})
	}
}

// BenchmarkFig5Informed runs the informed flow, reporting the
// Auto-Selected speedup.
func BenchmarkFig5Informed(b *testing.B) {
	for _, app := range bench.All() {
		b.Run(app.Name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunBenchmark(app, tasks.Informed, nil)
				if err != nil {
					b.Fatal(err)
				}
				best = 0
				for _, r := range results {
					if r.Speedup > best {
						best = r.Speedup
					}
				}
			}
			b.ReportMetric(best, "auto-speedupX")
		})
	}
}

func metricLabel(d *core.Design) string {
	switch {
	case d.Target == platform.TargetCPU:
		return "omp-speedupX"
	case d.Device == platform.GTX1080Ti.Name:
		return "gtx1080-speedupX"
	case d.Device == platform.RTX2080Ti.Name:
		return "rtx2080-speedupX"
	case d.Device == platform.Arria10.Name:
		return "a10-speedupX"
	case d.Device == platform.Stratix10.Name:
		return "s10-speedupX"
	}
	return "unknown"
}

// BenchmarkTable1 regenerates the added-LOC analysis from a Fig. 5 sweep and
// reports the average percentages per design family.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		fig5, err := experiments.RunFig5(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows = experiments.Table1(fig5)
	}
	avg := experiments.Table1Average(rows)
	b.ReportMetric(avg.OMP, "omp-addedLOC%")
	b.ReportMetric(avg.HIP1080, "hip-addedLOC%")
	b.ReportMetric(avg.A10, "a10-addedLOC%")
	b.ReportMetric(avg.S10, "s10-addedLOC%")
	b.ReportMetric(avg.Total, "total-addedLOC%")
}

// BenchmarkFig6 regenerates the cost trade-off curves and reports the
// crossover price ratios.
func BenchmarkFig6(b *testing.B) {
	var series []experiments.Fig6Series
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig5(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		series = experiments.RunFig6(rows)
	}
	for _, s := range series {
		b.ReportMetric(s.Crossover, s.Benchmark+"-crossover")
	}
}

// BenchmarkUnrollDSE measures the Fig. 2 meta-program as branch point C
// runs it: the Arria 10 and Stratix 10 Unroll Until Overmap DSE tasks, each
// on its own fork of one design wrapping a saxpy-like kernel. final-unroll
// is the factor the Arria 10 walk settles on.
func BenchmarkUnrollDSE(b *testing.B) {
	src := `
void k(int n, const float *a, float *b) {
    for (int i = 0; i < n; i++) {
        b[i] = sqrtf(a[i] * a[i] + 1.0f);
    }
}
`
	d := core.NewDesign("saxpy", minic.MustParse(src))
	d.Kernel = "k"
	a10, s10 := tasks.UnrollUntilOvermap(platform.Arria10), tasks.UnrollUntilOvermap(platform.Stratix10)
	ctx := &core.Context{}
	b.ReportAllocs()
	finalUnroll := 0
	for i := 0; i < b.N; i++ {
		// The kernel is named by hand, not given by Extract Hotspot, so the
		// tasks' Fn runs without Run's need check.
		fa, fs := d.Fork(), d.Fork()
		if err := a10.Fn(ctx, fa); err != nil {
			b.Fatal(err)
		}
		if err := s10.Fn(ctx, fs); err != nil {
			b.Fatal(err)
		}
		finalUnroll = fa.UnrollFactor
	}
	b.ReportMetric(float64(finalUnroll), "final-unroll")
}

// BenchmarkFlowHot measures what is left of a job once every profiled run
// is cached — the serve_hot budget: one op is the five applications in
// both modes over a warmed run cache, so parse, queries, transforms, DSE,
// HLS estimation and rendering are all that executes.
// Profile it with
//
//	go test -run '^$' -bench FlowHot -benchtime 500x -memprofile m.out .
func BenchmarkFlowHot(b *testing.B) {
	runs := core.NewRunCache()
	var env experiments.JobEnv
	flows := func() {
		for _, app := range bench.All() {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}
				if _, err := experiments.RunBenchmarkEnv(context.Background(), app, nil, opts, env, nil, nil, runs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	flows() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows()
	}
}

// BenchmarkFlowCold is the cold counterpart: the same ten flows, each with a
// run cache nothing has touched — what the benchmark module's flow_cold
// workload runs, without the module — so every profiled run executes and
// the interpreter is nearly all of the time. runs/op is the recorder's
// interp.runs per ten flows: 24 (the hotspot run, which also serves the
// kernel analyses, plus one verify run per accelerator class a flow takes).
// It is the one-command cold profile:
//
//	go test -run '^$' -bench FlowCold -benchtime 20x -cpuprofile c.out .
func BenchmarkFlowCold(b *testing.B) {
	rec := telemetry.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, app := range bench.All() {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				opts := tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}
				if _, err := experiments.RunBenchmarkEnv(context.Background(), app, nil, opts, experiments.JobEnv{}, nil, rec, core.NewRunCache()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(rec.Snapshot().Counters[telemetry.CounterInterpRuns])/float64(b.N), "runs/op")
}

// BenchmarkInterp measures the dynamic-analysis substrate: one profiled
// execution of each benchmark application on the default engine (the
// register bytecode VM).
func BenchmarkInterp(b *testing.B) {
	benchmarkInterp(b, interp.Config{})
}

// BenchmarkInterpTreeWalk runs the same executions on the reference
// tree-walking evaluator, so the VM's gain stays measured.
func BenchmarkInterpTreeWalk(b *testing.B) {
	benchmarkInterp(b, interp.Config{TreeWalk: true})
}

func benchmarkInterp(b *testing.B, base interp.Config) {
	for _, app := range bench.All() {
		b.Run(app.Name, func(b *testing.B) {
			prog := app.Parse()
			w := bench.Workload{B: app}
			if !base.TreeWalk {
				// Repeat runs share one lowering, so the loop times the
				// VM, not the lowering. A flow memoizes results and runs
				// each program once, cold: that cost is the benchmark's
				// interp.cold_run_ms and interp.lower_ms.
				base.Progs = interp.NewProgramCache()
				base.Fingerprint = minic.Fingerprint(prog)
			}
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Entry, cfg.Args = w.Entry(), w.Args()
				res, err := interp.Run(prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(steps)/secs/1e6, "interp-Mops/s")
			}
		})
	}
}

// BenchmarkParse measures what every job pays for its source at submit:
// minic.Parse — lexing, parsing, node IDs and the check — of each
// application. B/op and allocs/op are the front end's share of a job's
// allocation budget.
func BenchmarkParse(b *testing.B) {
	for _, app := range bench.All() {
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := minic.Parse(app.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHLSEstimate measures the resource estimator on the largest
// kernel (Rush Larsen).
func BenchmarkHLSEstimate(b *testing.B) {
	app, _ := bench.ByName("rushlarsen")
	prog := app.Parse()
	fn := prog.MustFunc("rush_larsen")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hls.Estimate(prog, fn, platform.Stratix10, 0)
	}
}
