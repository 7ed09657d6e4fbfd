// Package experiments reproduces the paper's evaluation: Fig. 5
// (accelerated-hotspot speedups of the auto-generated designs, informed
// and uninformed modes), Table I (added lines of code per design), and
// Fig. 6 (FPGA vs GPU cost trade-off crossovers). Every experiment runs
// the actual PSA-flow (flowlang.PSAFlow) on the benchmarks of
// internal/bench; design times come from the device models scaled to the
// evaluation scenario.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// DesignResult is one generated design with its evaluation-scale speedup.
type DesignResult struct {
	Design     *core.Design
	Speedup    float64
	Infeasible bool
	Breakdown  perfmodel.Breakdown
}

// Fig5Row is one benchmark's bar group in Fig. 5.
type Fig5Row struct {
	Benchmark  string
	AutoTarget string  // target class the informed strategy selected
	Auto       float64 // best speedup among the informed designs
	OMP        float64
	GTX1080    float64
	RTX2080    float64
	A10        float64 // 0 when infeasible
	S10        float64 // 0 when infeasible
	A10Overmap bool
	S10Overmap bool
	// All designs generated by the uninformed flow, for detailed reports.
	Designs []DesignResult
}

// evalDesign recomputes the design's device time with features scaled to
// the evaluation scenario and returns its Fig. 5 speedup. A design is
// evaluated only once its tasks have chosen a target and a device the
// platform catalog models; otherwise it is infeasible, and says why.
func evalDesign(cpu platform.CPUSpec, d *core.Design, es bench.EvalScale) DesignResult {
	switch {
	case d.Infeasible != "":
	case !d.Holds(core.FactTarget):
		d.Infeasible = "no target chosen"
	case !d.Holds(core.FactDevice):
		d.Infeasible = "no device chosen"
	}
	if d.Infeasible != "" {
		return DesignResult{Design: d, Infeasible: true}
	}
	feat := es.Apply(d.Report.Features())
	gpu, isGPU := platform.GPUByName(d.Device)
	fpga, isFPGA := platform.FPGAByName(d.Device)
	var bd perfmodel.Breakdown
	switch {
	case d.Target == platform.TargetCPU:
		t := perfmodel.OMPTime(cpu, feat, d.NumThreads)
		bd = perfmodel.Breakdown{KernelTime: t, Total: t, Note: fmt.Sprintf("%d threads", d.NumThreads)}
	case d.Target == platform.TargetGPU && isGPU:
		bd = perfmodel.GPUTime(gpu, feat, d.Blocksize, d.Pinned)
	case d.Target == platform.TargetFPGA && isFPGA && d.HLSReport != nil:
		bd = perfmodel.FPGATime(fpga, es.ApplyHLS(d.HLSReport), feat, d.ZeroCopy)
	default:
		d.Infeasible = fmt.Sprintf("device %q is not in the platform catalog", d.Device)
		return DesignResult{Design: d, Infeasible: true}
	}
	return DesignResult{
		Design:    d,
		Speedup:   perfmodel.Speedup(cpu, feat, bd),
		Breakdown: bd,
	}
}

// RunBenchmark pushes one benchmark through the PSA-flow in the given mode
// with the default strategy, no telemetry and a fresh profiled-run cache,
// and returns the evaluated designs.
func RunBenchmark(b *bench.Benchmark, mode tasks.Mode, logf func(string, ...any)) ([]DesignResult, error) {
	return RunBenchmarkEnv(context.Background(), b, nil, tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}, JobEnv{}, logf, nil, core.NewRunCache())
}

// JobEnv carries per-run resilience settings into the flow context: a
// deterministic fault injector (nil = injection off), the retry policy
// applied to transient failures, and an optional per-task-attempt
// timeout. The zero value reproduces pre-resilience behaviour exactly.
type JobEnv struct {
	Faults      *faults.Injector
	Retry       faults.RetryPolicy
	TaskTimeout time.Duration
	// Progs is the lowered-bytecode program cache of the flow context
	// (core.Context.Progs). It is consulted only when the flow runs
	// without a profiled-run cache, the one case where a program is
	// executed more than once; nil then means a cache private to the run.
	Progs *interp.ProgramCache
	// Flow is the graph this run executes: a lowered .psa document (see
	// ResolveEnv) or an edited variant of the built-in flow. Nil is the
	// built-in PSA-flow, flowlang.PSAFlow(opts).
	Flow *core.Flow
	// Budget and Cost feed the Fig. 3 budget feedback gate
	// (core.Context.Budget/Cost); the gate is active only when the flow has
	// a gated branch, Budget > 0, and Cost is non-nil.
	Budget float64
	Cost   func(*core.Design) float64
}

// DefaultCost prices a finished design for the budget feedback gate with
// a per-target-class weighting: FPGA designs carry the board premium, CPU
// designs are cheapest. ResolveEnv installs it as JobEnv.Cost whenever a
// budget is set.
func DefaultCost(d *core.Design) float64 {
	switch d.Target {
	case platform.TargetGPU:
		return d.Est.Total * 1.0
	case platform.TargetFPGA:
		return d.Est.Total * 3.0
	default:
		return d.Est.Total * 0.25
	}
}

// Settings is one tier of a run's flow-level settings; a zero field is
// "not set at this tier".
type Settings struct {
	// Faults is faults-spec text. "off" is a setting: it disables
	// injection over whatever a lower tier asks for.
	Faults string
	// Retry is the engine retry policy. The default and document tiers
	// supply a whole policy; the explicit tier overrides MaxAttempts and
	// Budget field by field (Budget -1 = unlimited).
	Retry faults.RetryPolicy
	// Budget is the cost budget of the gated branches.
	Budget float64
}

// ResolveEnv is the one resolution of a run's flow-level settings, for
// every surface that runs a flow (psaflow, psaflowd jobs): what the caller
// set explicitly (CLI flags, the job spec) beats what the document sets,
// which beats the surface's default. doc is the lowered document the run
// executes — the bundled paper.psa (flowlang.Bundled) for the built-in
// flow — and its flow becomes JobEnv.Flow. A budget from any tier installs
// DefaultCost, and each call builds a fresh injector, so a re-run replays
// the same deterministic fault schedule from occurrence zero.
func ResolveEnv(explicit Settings, doc *flowlang.Compiled, def Settings) (JobEnv, error) {
	env := JobEnv{Flow: doc.Flow, Retry: def.Retry, Budget: def.Budget}
	spec := def.Faults
	if doc.Faults != "" {
		spec = doc.Faults
	}
	if doc.HasRetry {
		env.Retry = doc.Retry
	}
	if doc.Budget > 0 {
		env.Budget = doc.Budget
	}
	if explicit.Faults != "" {
		spec = explicit.Faults
	}
	if explicit.Retry.MaxAttempts > 0 {
		env.Retry.MaxAttempts = explicit.Retry.MaxAttempts
	}
	if explicit.Retry.Budget != 0 {
		env.Retry.Budget = explicit.Retry.Budget
	}
	if explicit.Budget > 0 {
		env.Budget = explicit.Budget
	}
	inj, err := faults.ParseSpec(spec)
	if err != nil {
		return JobEnv{}, err // names itself: "faults: bad rate …"
	}
	env.Faults = inj
	if env.Budget > 0 {
		env.Cost = DefaultCost
	}
	return env, nil
}

// RunBenchmarkEnv runs the flow built from opts (or env.Flow) on one
// benchmark; it is the entry point of the serving layer (cmd/psaflowd), the
// CLIs and the benchmark harness. The flow run honours jobCtx cancellation
// and deadlines, prog optionally replaces the benchmark's bundled source
// (MiniC submitted over HTTP; it must define the benchmark's entry
// function, which supplies the workload arguments), spans and counters land
// in rec (nil disables recording), and runs is a caller-owned profiled-run
// cache that may be shared across many jobs — identical programs submitted
// by different clients then execute once and hit everywhere else. env's
// injector, retry policy, and task timeout land in the flow context, so
// chaos runs and per-job fault specs reach the engine's recovery machinery
// (retry-in-place, branch degradation, strategy fallback). Branch paths
// always run in parallel — a fork copies what it writes and the recorder
// is race-safe. logf, when set, is handed every event of the run as one
// line of its type, name and detail (`retry "Pointer Analysis" "attempt 1
// failed …"`) — what the daemon's event stream carries for a job — through
// a sink it installs on rec (a fresh recorder when rec is nil); parallel
// branch paths call it at once, so it must be safe for concurrent use. The
// flow starts from core.NewDesign(prog): it may write prog in place.
func RunBenchmarkEnv(jobCtx context.Context, b *bench.Benchmark, prog *minic.Program, opts tasks.FlowOptions, env JobEnv, logf func(string, ...any), rec *telemetry.Recorder, runs *core.RunCache) ([]DesignResult, error) {
	if prog == nil {
		prog = b.Parse()
	}
	return RunDesignEnv(jobCtx, b, core.NewDesign(b.Name, prog), opts, env, logf, rec, runs)
}

// RunDesignEnv is RunBenchmarkEnv from a design the caller built: the
// daemon starts one from a program it keeps for many jobs with
// core.SharedDesign, so no run writes that program.
func RunDesignEnv(jobCtx context.Context, b *bench.Benchmark, design *core.Design, opts tasks.FlowOptions, env JobEnv, logf func(string, ...any), rec *telemetry.Recorder, runs *core.RunCache) ([]DesignResult, error) {
	progs := env.Progs
	if progs == nil && runs == nil {
		progs = interp.NewProgramCache()
	}
	if logf != nil {
		if rec == nil {
			rec = telemetry.New()
		}
		rec.SetEventSink(func(e events.Event) { logf("%s %q %q", e.Type, e.Name, e.Args.Append(nil)) })
	}
	ctx := &core.Context{
		Ctx:         jobCtx,
		Workload:    bench.Workload{B: b},
		CPU:         platform.EPYC7543,
		Budget:      env.Budget,
		Cost:        env.Cost,
		Parallel:    true, // branch paths fork designs; evaluate them concurrently
		Telemetry:   rec,
		Runs:        runs, // dynamic analyses share profiled runs across paths
		Progs:       progs,
		Faults:      env.Faults,
		Retry:       env.Retry,
		TaskTimeout: env.TaskTimeout,
	}
	flow := env.Flow
	if flow == nil {
		flow = flowlang.PSAFlow(opts)
	}
	leaves, err := flow.Run(ctx, design)
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
	}
	// Results come in label order; each label is built once, not once per
	// comparison.
	labels := make([]string, len(leaves))
	order := make([]int, len(leaves))
	for i, d := range leaves {
		labels[i], order[i] = d.Label(), i
	}
	sort.Slice(order, func(i, j int) bool { return labels[order[i]] < labels[order[j]] })
	out := make([]DesignResult, 0, len(leaves))
	for _, i := range order {
		out = append(out, evalDesign(ctx.CPU, leaves[i], b.Scale))
	}
	return out, nil
}

// The generated designs of Fig. 5's bars and Table I's columns, in the
// paper's order.
const (
	colOMP = iota
	colGTX1080
	colRTX2080
	colA10
	colS10
)

// column is the Fig. 5 bar and Table I column design d fills, or -1 for a
// design of none of them.
func column(d *core.Design) int {
	switch {
	case !d.Holds(core.FactTarget):
		return -1
	case d.Target == platform.TargetCPU:
		return colOMP
	}
	switch d.Device {
	case platform.GTX1080Ti.Name:
		return colGTX1080
	case platform.RTX2080Ti.Name:
		return colRTX2080
	case platform.Arria10.Name:
		return colA10
	case platform.Stratix10.Name:
		return colS10
	}
	return -1
}

// RunFig5 reproduces Fig. 5: for every benchmark the uninformed flow
// generates all five designs (speedup bars), and the informed flow
// produces the Auto-Selected bar. Flow telemetry goes into rec when it is
// not nil, so `psabench -fig5 -metrics` can report where the uninformed
// sweep spends its time.
func RunFig5(logf func(string, ...any), rec *telemetry.Recorder) ([]Fig5Row, error) {
	var rows []Fig5Row
	// One profiled-run cache for the whole sweep: the informed pass reuses
	// the uninformed pass's runs (same programs, same workloads), and the
	// workload name in the key keeps benchmarks from colliding.
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		uninformed, err := RunBenchmarkEnv(context.Background(), b, nil, tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy}, JobEnv{}, logf, rec, runs)
		if err != nil {
			return nil, err
		}
		informed, err := RunBenchmarkEnv(context.Background(), b, nil, tasks.FlowOptions{Mode: tasks.Informed, Strategy: tasks.DefaultStrategy}, JobEnv{}, logf, rec, runs)
		if err != nil {
			return nil, err
		}
		row := Fig5Row{Benchmark: b.Name, Designs: uninformed}
		bars := [...]*float64{&row.OMP, &row.GTX1080, &row.RTX2080, &row.A10, &row.S10}
		overmap := [...]*bool{colA10: &row.A10Overmap, colS10: &row.S10Overmap}
		for _, r := range uninformed {
			c := column(r.Design)
			if c < 0 {
				continue
			}
			*bars[c] = r.Speedup
			if overmap[c] != nil {
				*overmap[c] = r.Infeasible
			}
		}
		for _, r := range informed {
			if r.Infeasible {
				continue
			}
			if r.Speedup > row.Auto {
				row.Auto = r.Speedup
				row.AutoTarget = r.Design.Target.String()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// paperFig5 records the paper's reported speedups for the comparison
// columns of EXPERIMENTS.md (0 = not reported / not synthesizable).
var paperFig5 = map[string][6]float64{
	//            auto  omp  1080 2080  a10  s10
	"nbody":       {751, 30, 337, 751, 1.1, 1.4},
	"kmeans":      {30, 30, 19, 24, 7, 13},
	"adpredictor": {32, 28, 10, 10, 14, 32},
	"rushlarsen":  {98, 28, 63, 98, 0, 0},
	"bezier":      {67, 29, 63, 67, 23, 27},
}

// PaperFig5 exposes the paper's reported numbers for a benchmark:
// auto, omp, gtx1080, rtx2080, a10, s10.
func PaperFig5(name string) ([6]float64, bool) {
	v, ok := paperFig5[name]
	return v, ok
}

// FormatFig5 renders the rows as the paper-vs-measured table used in
// EXPERIMENTS.md and the CLI.
func FormatFig5(rows []Fig5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %9s %9s %9s %9s %9s %9s\n",
		"benchmark", "auto", "Auto", "OMP", "GTX1080", "RTX2080", "A10", "S10")
	cell := func(v float64, overmap bool) string {
		if overmap {
			return "overmap"
		}
		if v == 0 {
			return "-"
		}
		if v < 10 {
			return fmt.Sprintf("%.1fX", v)
		}
		return fmt.Sprintf("%.0fX", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-6s %9s %9s %9s %9s %9s %9s\n",
			r.Benchmark, r.AutoTarget,
			cell(r.Auto, false), cell(r.OMP, false),
			cell(r.GTX1080, false), cell(r.RTX2080, false),
			cell(r.A10, r.A10Overmap), cell(r.S10, r.S10Overmap))
		if paper, ok := PaperFig5(r.Benchmark); ok {
			fmt.Fprintf(&sb, "%-12s %-6s %9s %9s %9s %9s %9s %9s\n",
				"  (paper)", "",
				cell(paper[0], false), cell(paper[1], false),
				cell(paper[2], false), cell(paper[3], false),
				cell(paper[4], paper[4] == 0), cell(paper[5], paper[5] == 0))
		}
	}
	return sb.String()
}

// BestSpeedup returns the maximum feasible speedup in the row and its
// column name.
func (r Fig5Row) BestSpeedup() (float64, string) {
	best, name := 0.0, ""
	try := func(v float64, n string) {
		if v > best {
			best, name = v, n
		}
	}
	try(r.OMP, "omp")
	try(r.GTX1080, "gtx1080")
	try(r.RTX2080, "rtx2080")
	try(r.A10, "a10")
	try(r.S10, "s10")
	return best, name
}

// InformedPickedWinner reports whether the informed flow's best design is
// within tolerance of the overall best design — the paper's headline claim
// that the informed PSA-flow selects the best target for all five
// benchmarks.
func (r Fig5Row) InformedPickedWinner(tol float64) bool {
	best, _ := r.BestSpeedup()
	if best == 0 {
		return false
	}
	return r.Auto >= best*(1-tol) && !math.IsInf(r.Auto, 1)
}
