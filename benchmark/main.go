// Command benchmark is psaflow's one measuring stick: four closed-loop
// workloads (one client, one job in flight), every metric a median over
// rounds of a fixed job list, every output verified. See README.md.
//
//	go run . -workload serve_hot -seed 1            one workload, end-to-end metrics
//	go run . -workload serve_hot -seed 1 -trace 1   the same with spans and per-layer metrics
//	go run .                                        all four, untraced then traced
//	go run . -selfcheck                             all four twice; fails if the two runs disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"psaflow/internal/bench"
)

// processStart is as close to process start as Go code gets; setup_s
// counts from here.
var processStart = time.Now()

// tracedRounds is how many rounds a traced run measures with spans on,
// and as many without.
const tracedRounds = 3

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: flow_cold, serve_unique, serve_hot or cluster_hop (default: all four, each untraced then traced)")
		seed       = flag.Int64("seed", 1, "salts the programs and shuffles the jobs inside a round")
		seconds    = flag.Int("seconds", 0, "stop measuring before the round that would overrun this (0 = the workload's own round count)")
		trace      = flag.Int("trace", 0, "1 = record spans and report per-layer metrics instead of end-to-end ones")
		traceOut   = flag.String("trace-out", "", "where a traced run writes its spans (default .psabench-trace-<workload>.json)")
		reportPath = flag.String("report", "", "also write the run's metrics, with quartiles, to this file as JSON")
		selfcheck  = flag.Bool("selfcheck", false, "run all four workloads twice and fail if an end-to-end metric differs by more than its bound")
		calServer  = flag.Bool("calibration-server", false, "serve calibration samples on standard input and output (what a run starts as its child)")
		regolden   = flag.Bool("update-golden", false, "rewrite golden.json from the bundled programs and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seed < 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n>=0] [-seconds n] [-trace 0|1] [-trace-out file] [-report file] [-selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case *calServer:
		err = serveCalibration(os.Stdin, os.Stdout)
	case *regolden:
		err = updateGolden()
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *name == "":
		err = runSuite(*seed, *seconds)
	default:
		w := workloadByName(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		if *traceOut == "" {
			*traceOut = ".psabench-trace-" + w.Name + ".json"
		}
		err = runOne(w, *seed, *seconds, *trace == 1, *traceOut, *reportPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is one run's outcome, as -report writes it.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	MaxJobMS  float64            `json:"max_job_ms"`
	Metrics   map[string]summary `json:"metrics"`
}

// runOne runs one workload in this process and prints its report; the last
// line of standard output is the machine-readable result.
func runOne(w *workload, seed int64, seconds int, trace bool, traceOut, reportPath string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	flowSource, err := os.ReadFile(filepath.Join(root, flowDocument))
	if err != nil {
		return err
	}
	// A traced run alternates untraced and traced rounds, so that the
	// machine drifting between the two does not pass for tracing overhead.
	rounds := w.Rounds
	if trace {
		rounds = 2 * tracedRounds
	}
	fmt.Print(header(root, w, seed, rounds))
	steal0, ticks0 := cpuTicks()

	// Set-up: reference check, daemon boot, flow registration, warm-up.
	apps := bench.All()
	if err := checkReference(apps); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", ".psabench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cal, err := startCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	h := &harness{w: w, seed: seed, apps: map[string]*bench.Benchmark{}, be: engine{}, cal: cal}
	for _, b := range apps {
		h.apps[b.Name] = b
	}
	var d *daemons
	if w.Nodes > 0 {
		if d, err = startDaemons(w.Nodes, tmp, string(flowSource)); err != nil {
			return err
		}
		h.be = d
	}
	defer h.be.close()
	var all []*roundStats
	for r := 0; r < w.Warmup; r++ {
		rs, err := h.round(r, nil)
		if err != nil {
			return err
		}
		all = append(all, rs)
	}
	setupS := time.Since(processStart).Seconds()

	// Untraced rounds give the end-to-end numbers; a traced run traces every
	// second round.
	var untraced, traced []*roundStats
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	measureStart := time.Now()
	peakRSS := 0.0
	for r := 1; r <= rounds; r++ {
		var roundTracer *tracer
		if r%2 == 0 {
			roundTracer = tr
		}
		rs, err := h.round(w.Warmup-1+r, roundTracer)
		if err != nil {
			return err
		}
		if roundTracer != nil {
			traced = append(traced, rs)
			continue
		}
		untraced = append(untraced, rs)
		// Memory grows with the jobs a daemon has kept, so it is read after
		// a fixed number of jobs, not after however many rounds the run fits
		// (traced runs measure untraced rounds 1, 3 and 5).
		if r == minRounds {
			peakRSS = peakRSSMB()
		}
		// -seconds ends the run before the round that would overrun it, so
		// that a slow machine measures fewer rounds and not for longer. Rounds
		// are whole, every metric is a median over them and the warm-up ends
		// in a steady state, so the number of rounds moves no metric.
		spent := time.Since(measureStart)
		if !trace && seconds > 0 && r >= minRounds && spent+spent/time.Duration(r) > time.Duration(seconds)*time.Second {
			break
		}
	}
	all = append(append(all, untraced...), traced...)
	metrics := endToEndMetrics(untraced, setupS*speedOver(all[:w.Warmup]), peakRSS)
	defs := endToEnd

	if trace {
		selfTimes := tr.selfTimes() // before the probes add their spans
		probes, err := h.layerProbes(tr, d, apps, string(flowSource), tmp, traced[len(traced)-1], w.Warmup-1+rounds)
		if err != nil {
			return err
		}
		metrics, defs = layerMetrics(w, untraced, traced, probes), perLayer
		if err := tr.write(traceOut); err != nil {
			return err
		}
		var tracedWall time.Duration
		for _, rs := range traced {
			tracedWall += rs.wall
		}
		fmt.Printf("\ntraced %d rounds: %d spans written to %s; job spans cover %.1f%% of the traced rounds' wall time\n",
			len(traced), len(tr.spans), traceOut, 100*tr.total("job").Seconds()/tracedWall.Seconds())
		printSelfTimes(selfTimes)
	}
	if err := h.be.close(); err != nil {
		return err
	}

	rep := report{Workload: w.Name, Seed: seed, Rounds: len(untraced), MaxJobMS: maxJobMS(untraced), Metrics: metrics}
	for _, r := range all {
		rep.Attempted += len(r.samples)
		rep.Failed += r.failed()
		for _, s := range r.samples {
			if s.err != nil {
				fmt.Printf("  FAILED %s: %v\n", s.job.class(), s.err)
			}
		}
	}
	steal1, ticks1 := cpuTicks()
	fmt.Printf("  load1 at end=%s  host steal during the run=%.2f%% of CPU ticks\n  measured %d rounds after %d of warm-up; jobs/s by round, warm-up included:",
		loadAvg1(), 100*(steal1-steal0)/max(ticks1-ticks0, 1), len(all)-w.Warmup, w.Warmup)
	for _, r := range all {
		fmt.Printf(" %.1f", r.jobsPerS())
	}
	fmt.Print("\n  machine speed by round (1 = reference; clock metrics are reported at reference speed):")
	for _, r := range all {
		fmt.Printf(" %.2f", r.speed())
	}
	fmt.Print("\n\n")
	fmt.Printf("%s: attempted %d  ok %d  failed %d  failed_pct %.3f\n", w.Name,
		rep.Attempted, rep.Attempted-rep.Failed, rep.Failed, 100*float64(rep.Failed)/float64(rep.Attempted))
	printMetrics(defs, metrics)
	if trace {
		printIsolation(w, metrics)
	}
	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			return err
		}
	}
	return printResultLine(defs, rep)
}

func printMetrics(defs []metricDef, metrics map[string]summary) {
	fmt.Printf("  %-34s %-7s %14s %14s %14s %3s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "better")
	for _, def := range defs {
		m, ok := metrics[def.Name]
		if !ok {
			continue // the layer does no work on this workload
		}
		line := fmt.Sprintf("  %-34s %-7s %14.4f %14.4f %14.4f %3d  %s", def.Name, def.Unit, m.Median, m.Q1, m.Q3, m.N, def.Better)
		if def.Bound > 0 {
			line += fmt.Sprintf(" (bound %.0f%%)", 100*def.Bound)
		}
		fmt.Println(line)
	}
}

func printSelfTimes(self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Println("  self time by span (span minus its children):")
	for _, name := range names {
		fmt.Printf("    %-24s %10.1f ms\n", name, float64(self[name])/float64(time.Millisecond))
	}
}

// printIsolation states whether the workload exercised what it claims to.
func printIsolation(w *workload, m map[string]summary) {
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
		}
		fmt.Printf("  isolation %s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	switch w.Name {
	case "serve_hot":
		check(m["core.runcache_hit_pct"].Median >= 95, "core.runcache_hit_pct %.1f >= 95", m["core.runcache_hit_pct"].Median)
		check(m["interp.runs_per_job"].Median < 0.05, "interp.runs_per_job %.3f < 0.05", m["interp.runs_per_job"].Median)
	case "serve_unique":
		check(m["core.runcache_misses_per_job"].Median >= 1, "core.runcache_misses_per_job %.2f >= 1", m["core.runcache_misses_per_job"].Median)
	case "cluster_hop":
		f := m["cluster.forwarded_pct"].Median
		check(f >= 30 && f <= 70, "cluster.forwarded_pct %.1f in 30..70", f)
	}
}

// printResultLine prints the last line of standard output: one JSON object
// with every metric of the table the run reports. A layer that did no work
// on the workload reads 0.
func printResultLine(defs []metricDef, rep report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, def := range defs {
		v := rep.Metrics[def.Name].Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[def.Name] = value{v, def.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// child runs one workload in a process of its own, so that peak memory,
// allocation counts and set-up time are that workload's alone.
func child(w *workload, seed int64, seconds int, trace bool, dir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	path := filepath.Join(dir, w.Name+"-"+traceFlag+".json")
	cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceFlag, "-report", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	return &rep, json.Unmarshal(data, &rep)
}

// runSuite runs every workload untraced, then traced.
func runSuite(seed int64, seconds int) error {
	dir, err := os.MkdirTemp(".", ".psabench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	failed := 0
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := child(&workloads[i], seed, seconds, trace, dir)
			if err != nil {
				return err
			}
			failed += rep.Failed
			fmt.Println()
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

// runSelfcheck runs the untraced suite twice on the same code and compares
// the two: the benchmark's own noise has to stay inside its bounds.
func runSelfcheck(seed int64, seconds int) error {
	dir, err := os.MkdirTemp(".", ".psabench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var passes [2][]*report
	for pass := range passes {
		for i := range workloads {
			rep, err := child(&workloads[i], seed, seconds, false, dir)
			if err != nil {
				return err
			}
			passes[pass] = append(passes[pass], rep)
		}
	}
	bad := 0
	fmt.Printf("\nselfcheck: two runs of the same code\n  %-13s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		a, b := passes[0][i], passes[1][i]
		for _, def := range endToEnd {
			x, y := a.Metrics[def.Name].Median, b.Metrics[def.Name].Median
			diff := math.Abs(x-y) / x
			verdict := ""
			if diff > def.Bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("  %-13s %-18s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", a.Workload, def.Name, x, y, 100*diff, 100*def.Bound, verdict)
		}
		for _, rep := range []*report{a, b} {
			if rep.Failed > 0 {
				fmt.Printf("  %-13s %d of %d jobs failed\n", rep.Workload, rep.Failed, rep.Attempted)
				bad++
			}
			// A hot job takes milliseconds; one over a second is the
			// signature of a client stuck behind the /events heartbeat.
			if rep.Workload == "serve_hot" && rep.MaxJobMS > 1000 {
				fmt.Printf("  %-13s a measured job took %.0f ms\n", rep.Workload, rep.MaxJobMS)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", bad)
	}
	fmt.Println("selfcheck: ok")
	return nil
}

// updateGolden regenerates golden.json from the unsalted bundled programs.
// Run it from this directory; workload_test.go then has to agree that the
// new file still says what EXPERIMENTS.md's Fig. 5 table says.
func updateGolden() error {
	out := map[string]outcome{}
	for _, b := range bench.All() {
		for _, mode := range modes {
			got, _, err := engineJob(prepared{job: job{App: b.Name, Mode: mode}, bench: b, source: b.Source}, nil, 0, 0)
			if err != nil {
				return err
			}
			out[b.Name+"/"+mode] = got
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(data, '\n'), 0o644)
}
