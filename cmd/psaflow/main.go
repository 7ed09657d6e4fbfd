// Command psaflow runs the implemented PSA-flow (paper Fig. 4) on one of
// the five evaluation benchmarks and reports the generated designs: target
// and device, tuned parameters, estimated performance, execution trace,
// and (optionally) the full generated target source.
//
// The flow graph defaults to the built-in PSA-flow of paper Fig. 4, the
// bundled examples/flows/paper.psa; -flow runs a .psa document instead (see
// docs/FLOWS.md), and -check validates one as psaflowd's flow registry does.
//
// Usage:
//
//	psaflow -bench nbody [-mode informed|uninformed] [-timeout 30s] [-trace]
//	        [-flow examples/flows/paper.psa] [-budget 0.5]
//	        [-faults seed=1,rate=0.1,kinds=hls,run] [-task-timeout 10s]
//	        [-emit] [-metrics] [-metrics-json out.json] [-v]
//	psaflow -check examples/flows/paper.psa
//	psaflow -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

func main() {
	name := flag.String("bench", "", "benchmark to run (see -list)")
	mode := flag.String("mode", "informed", "branch point A mode: informed or uninformed")
	flowFile := flag.String("flow", "", "run this .psa flow document instead of the built-in PSA-flow (see docs/FLOWS.md)")
	check := flag.String("check", "", "check this .psa flow document (syntax, names, devices, strategies, task order), print diagnostics, and exit")
	budget := flag.Float64("budget", 0, "cost budget for gated branches (0 = gate off; overrides the flow's budget setting)")
	list := flag.Bool("list", false, "list available benchmarks")
	sharing := flag.Bool("sharing", false, "enable FPGA resource sharing (recovers overmapped designs)")
	trace := flag.Bool("trace", false, "print the provenance trace of each design")
	emit := flag.Bool("emit", false, "print the generated target source of each design")
	outDir := flag.String("out", "", "export each design (source, trace, summary) under this directory")
	metrics := flag.Bool("metrics", false, "print a flow telemetry report (timings + counters)")
	metricsJSON := flag.String("metrics-json", "", "write the flow telemetry report as JSON to this file")
	timeout := flag.Duration("timeout", 0, "bound the flow's wall-clock time (0 = unbounded)")
	faultSpec := flag.String("faults", "", `inject deterministic faults: "seed=1,rate=0.1,kinds=hls,run" ("" or "off" disables)`)
	taskTimeout := flag.Duration("task-timeout", 0, "bound each flow task attempt; timed-out attempts are retried (0 = unbounded)")
	verbose := flag.Bool("v", false, "print each event of the flow (type, name, detail) to stderr, as a job's event stream carries it")
	flag.Parse()

	if *check != "" {
		src, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		doc, err := flowlang.Check(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *check, err)
			os.Exit(2)
		}
		fmt.Printf("%s: ok (flow %q)\n", *check, doc.Name())
		return
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-12s %s (expected informed target: %s)\n", b.Name, b.Descr, b.ExpectTarget)
		}
		return
	}
	b, err := bench.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "use -list to see available benchmarks")
		os.Exit(2)
	}
	m, err := tasks.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := tasks.FlowOptions{Mode: m, Strategy: tasks.DefaultStrategy, ResourceSharing: *sharing}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var rec *telemetry.Recorder
	if *metrics || *metricsJSON != "" {
		rec = telemetry.New()
	}

	runCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}
	doc := flowlang.Bundled()
	if *flowFile != "" {
		src, err := os.ReadFile(*flowFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if doc, err = flowlang.Check(string(src)); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *flowFile, err)
			os.Exit(2)
		}
	}
	env, err := experiments.ResolveEnv(experiments.Settings{Faults: *faultSpec, Budget: *budget}, doc.Compile(opts), experiments.Settings{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env.TaskTimeout = *taskTimeout
	results, err := experiments.RunBenchmarkEnv(runCtx, b, nil, opts, env, logf, rec, core.NewRunCache())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s (%s mode): %d design(s)\n\n", b.Name, m, len(results))
	for _, r := range results {
		d := r.Design
		fmt.Printf("design %s\n", d.Label())
		if r.Infeasible {
			fmt.Printf("  INFEASIBLE: %s\n", d.Infeasible)
		} else {
			fmt.Printf("  estimated speedup over 1-thread CPU: %.1fX\n", r.Speedup)
			fmt.Printf("  time breakdown: kernel=%.4gs transfer=%.4gs overhead=%.4gs (%s)\n",
				r.Breakdown.KernelTime, r.Breakdown.TransferTime, r.Breakdown.Overhead, r.Breakdown.Note)
			switch {
			case d.NumThreads > 0:
				fmt.Printf("  tuned: %d OpenMP threads\n", d.NumThreads)
			case d.Blocksize > 0:
				fmt.Printf("  tuned: blocksize=%d pinned=%t sharedmem=%v fastmath=%t\n",
					d.Blocksize, d.Pinned, d.SharedMem, d.Specialised)
			case d.UnrollFactor > 0:
				fmt.Printf("  tuned: unroll=%d zerocopy=%t (%s)\n",
					d.UnrollFactor, d.ZeroCopy, d.HLSReport)
			}
			if d.Artifact != nil {
				fmt.Printf("  generated %s source: %d LOC (+%d over the %d-line reference)\n",
					d.Artifact.Target, d.Artifact.LOC, d.Artifact.AddedLOC, d.RefLOC)
			}
		}
		if *trace {
			fmt.Println("  trace:")
			for _, line := range core.TraceLines(d.Trace) {
				fmt.Printf("    %s\n", line)
			}
		}
		if *emit && d.Artifact != nil {
			fmt.Println("  ---- generated source ----")
			fmt.Println(d.Artifact.Source)
		}
		if *outDir != "" {
			dir, err := d.Export(*outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "export:", err)
				os.Exit(1)
			}
			fmt.Printf("  exported to %s\n", dir)
		}
		fmt.Println()
	}

	if err := rec.WriteReports(os.Stdout, *metrics, *metricsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "metrics-json:", err)
		os.Exit(1)
	}
}
