// Command psabench regenerates the paper's evaluation artifacts: the
// Fig. 5 speedup table (informed + uninformed PSA-flow runs over all five
// benchmarks), the Table I added-LOC analysis, and the Fig. 6 cost
// trade-off curves. Each output prints measured values next to the
// paper's reported numbers.
//
// Usage:
//
//	psabench [-fig5] [-table1] [-fig6] [-ablate] [-json out.json]
//	         [-metrics] [-metrics-json out.json] [-v]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//	psabench -chaos [-faults seed=1,rate=0.2] [-chaos-runs 5]
//	         [-chaos-mode informed] [-chaos-json out.json]
//
// With no selection flags, everything runs (the chaos sweep is opt-in).
// -metrics prints a flow telemetry report (per-task wall clock plus
// interp/DSE/HLS counters) for the experiment runs; -metrics-json writes
// the same report as JSON. -chaos sweeps seeded fault injection over all
// five benchmarks (see docs/FAULTS.md) and writes the completion/retry/
// degradation report consumed by scripts/chaos.sh. -cpuprofile and
// -memprofile write pprof profiles of whatever the other flags selected
// (read them with `go tool pprof`); a run that exits on an error writes
// neither.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

func main() {
	fig5 := flag.Bool("fig5", false, "reproduce Fig. 5 (design speedups)")
	table1 := flag.Bool("table1", false, "reproduce Table I (added lines of code)")
	fig6 := flag.Bool("fig6", false, "reproduce Fig. 6 (FPGA vs GPU cost trade-off)")
	ablate := flag.Bool("ablate", false, "run the optimisation-task ablation study")
	jsonOut := flag.String("json", "", "also write the selected results as JSON to this file")
	metrics := flag.Bool("metrics", false, "print a flow telemetry report (timings + counters)")
	metricsJSON := flag.String("metrics-json", "", "write the flow telemetry report as JSON to this file")
	chaos := flag.Bool("chaos", false, "run the seeded fault-injection sweep over all benchmarks")
	faultSpec := flag.String("faults", "seed=1,rate=0.2", "chaos fault spec; the seed is the sweep's starting seed")
	chaosRuns := flag.Int("chaos-runs", 5, "number of consecutive seeds to sweep in -chaos")
	chaosMode := flag.String("chaos-mode", "informed", "flow mode for -chaos: informed or uninformed")
	chaosJSON := flag.String("chaos-json", "", "write the chaos report as JSON to this file")
	verbose := flag.Bool("v", false, "print each event of every flow (type, name, detail) to stderr, as a job's event stream carries it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()
	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	all := !*fig5 && !*table1 && !*fig6 && !*ablate && !*chaos
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

	var fig5Rows []experiments.Fig5Row
	// Table I and Fig. 6 are read off the Fig. 5 rows.
	if all || *fig5 || *table1 || *fig6 {
		rows, err := experiments.RunFig5(logf, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5:", err)
			os.Exit(1)
		}
		fig5Rows = rows
	}

	if all || *fig5 {
		fmt.Println("== Fig. 5: accelerated hotspot speedups (measured vs paper) ==")
		fmt.Println(experiments.FormatFig5(fig5Rows))
		winners := 0
		for _, r := range fig5Rows {
			if r.InformedPickedWinner(0.05) {
				winners++
			}
		}
		fmt.Printf("informed PSA strategy selected the best target for %d/%d benchmarks\n\n",
			winners, len(fig5Rows))
	}

	var table1Rows []experiments.Table1Row
	if all || *table1 {
		table1Rows = experiments.Table1(fig5Rows)
		fmt.Println("== Table I: added lines of code per generated design ==")
		fmt.Println(experiments.FormatTable1(table1Rows))
		fmt.Println()
	}

	if all || *fig6 {
		fmt.Println("== Fig. 6: FPGA vs GPU cost trade-off ==")
		fmt.Println(experiments.FormatFig6(experiments.RunFig6(fig5Rows)))
	}

	if *chaos {
		inj, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		if inj == nil {
			fmt.Fprintln(os.Stderr, "chaos: -faults must enable injection (rate > 0)")
			os.Exit(2)
		}
		mode, err := tasks.ParseMode(*chaosMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		fmt.Printf("== Chaos: %s mode, %s, %d seed(s) ==\n", mode, inj, *chaosRuns)
		rep := experiments.RunChaos(mode, inj, *chaosRuns, faults.RetryPolicy{}, logf)
		rep.Date = time.Now().UTC().Format("2006-01-02")
		fmt.Println(experiments.FormatChaos(rep))
		if *chaosJSON != "" {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos-json:", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*chaosJSON, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "chaos-json:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *chaosJSON)
		}
		if mode == tasks.Informed && rep.CompletionRate < 1 {
			fmt.Fprintf(os.Stderr, "chaos: informed completion rate %.0f%% < 100%%\n", rep.CompletionRate*100)
			os.Exit(1)
		}
	}

	var ablations []experiments.AblationRow
	if all || *ablate {
		rows, err := experiments.RunAblations(logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablate:", err)
			os.Exit(1)
		}
		ablations = rows
		fmt.Println("== Ablations: optimisation tasks on/off ==")
		fmt.Println(experiments.FormatAblations(rows))
	}

	if *jsonOut != "" {
		rep := experiments.ReportJSON{Table1: table1Rows, Ablations: ablations}
		if all || *fig5 || *fig6 {
			rep.Fig5 = experiments.Fig5ToJSON(fig5Rows)
			rep.Fig6 = experiments.RunFig6(fig5Rows)
		}
		data, err := experiments.MarshalReport(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if err := rec.WriteReports(os.Stdout, *metrics, *metricsJSON); err != nil {
		fmt.Fprintln(os.Stderr, "metrics-json:", err)
		os.Exit(1)
	}
	stopProfiles()
}

// startProfiles begins the CPU profile and returns the function that ends
// it and writes the allocation profile; an empty path disables either.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // flush the allocations of the last cycle into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}
