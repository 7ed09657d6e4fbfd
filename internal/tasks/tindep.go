// Package tasks is the repository of codified design-flow tasks — the Go
// counterpart of the paper's Fig. 4 left panel. Each task is a
// self-contained meta-program operating on a core.Design: target-
// independent analyses and transforms (this file), GPU-specific tasks
// (gpu.go), FPGA-specific tasks (fpga.go), and CPU/OpenMP tasks (cpu.go).
package tasks

import (
	"context"
	"errors"
	"fmt"
	"math"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// FullyUnrollableLimit is the fixed-trip-count threshold under which an
// inner dependence loop counts as "fully unrollable" on an FPGA (the PSA
// strategy's test in Fig. 3).
const FullyUnrollableLimit = 12

// MaterializeUnrollLimit bounds the "Unroll Fixed Loops" transform that
// spatially materializes fixed inner loops for the FPGA pipeline.
const MaterializeUnrollLimit = 64

// runWorkload executes the design's current program on the workload,
// watching the given function (or, when watch is "", the program's hotspot
// candidates). Each run's op/cycle totals flow into the context's telemetry
// recorder.
//
// When the context carries a RunCache, the execution is memoized on
// (program fingerprint, workload, entry, watch): the analyses that re-run
// an unchanged program — and sibling forked paths holding identical
// programs — share one profiled interp.Result. Transform rewrites
// change the fingerprint, so invalidation is automatic. Cached results are
// shared and therefore read-only for all consumers.
func runWorkload(ctx *core.Context, d *core.Design, watch string) (*interp.Result, error) {
	if err := runFailPoint(ctx, d, watch); err != nil {
		return nil, err
	}
	return profiledRun(ctx, d, watch, minic.Fingerprint(d.Prog))
}

// runFailPoint is what every dynamic task does before it looks for a
// profile, wherever the profile then comes from. Fault injection happens
// before the cache lookup so an injected failure can never poison a
// memoized result shared by other paths. The op is scoped by the design's
// target class: concurrent branch paths profile under distinct ops,
// keeping the per-op decision streams (and thus whole chaos runs)
// deterministic.
func runFailPoint(ctx *core.Context, d *core.Design, watch string) error {
	if ctx.Workload == nil {
		return fmt.Errorf("dynamic task requires a workload")
	}
	return ctx.FailPoint(faults.Run, "run:"+d.Target.String()+":"+watch)
}

// profiledRun is runWorkload after its fail point; fp is the fingerprint
// of the design's current program.
func profiledRun(ctx *core.Context, d *core.Design, watch string, fp uint64) (*interp.Result, error) {
	var counters interp.Counters
	if ctx.Telemetry != nil {
		counters = ctx.Telemetry
	}
	// One fingerprint keys whichever cache the flow has. A memoized result
	// is never executed again, so with a run cache the lowered image is
	// not kept and goes to the collector with the run; without one the
	// tasks that re-execute a program all run its one immutable image.
	var progs *interp.ProgramCache
	if ctx.Runs == nil {
		progs = ctx.Progs
	}
	run := func() (*interp.Result, error) {
		return interp.Run(d.Prog, interp.Config{
			Entry:       ctx.Workload.Entry(),
			Args:        ctx.Workload.Args(),
			Watch:       watch,
			Counters:    counters,
			Ctx:         ctx.Ctx,
			Progs:       progs,
			Fingerprint: fp,
		})
	}
	if ctx.Runs == nil {
		return run()
	}
	w := watch
	if w == "" {
		// The loop-watching run keeps the key it had when an empty watch
		// meant the entry function: cluster peers and probes derive it too.
		w = ctx.Workload.Entry()
	}
	key := core.RunKey{
		Fingerprint: fp,
		Workload:    ctx.Workload.Name(),
		Entry:       ctx.Workload.Entry(),
		Watch:       w,
	}
	res, err, hit := ctx.Runs.Do(key, run)
	// Cancellation hygiene for the shared cache: a run aborted by a context
	// is evicted so it cannot poison other consumers, and if the abort came
	// from a DIFFERENT job sharing the process-wide cache (our own context
	// is still live), the run is retried here. One retry suffices in
	// practice; a second concurrent cancellation just surfaces as an error
	// the flow reports.
	if err != nil && isCancel(err) {
		ctx.Runs.Forget(key)
		if ctx.Interrupted() == nil {
			res, err, hit = ctx.Runs.Do(key, run)
			if err != nil && isCancel(err) {
				ctx.Runs.Forget(key)
			}
		}
	}
	if hit {
		ctx.Count(telemetry.CounterRunCacheHits, 1)
		if res != nil {
			ctx.Count(telemetry.CounterRunCacheOpsAvoided, res.Steps)
			ctx.Count(telemetry.CounterRunCacheCyclesAvoided, int64(res.Prof.Cycles))
		}
	} else {
		ctx.Count(telemetry.CounterRunCacheMisses, 1)
	}
	return res, err
}

// isCancel reports whether err is a context cancellation or deadline.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IdentifyHotspots is the paper's "Identify Hotspot Loops" dynamic
// analysis: the application is executed with loop timers and the
// outermost loop with the largest time share becomes the acceleration
// candidate.
var IdentifyHotspots = core.TaskFunc{
	TaskName: "Identify Hotspot Loops", TaskKind: core.Analysis, IsDyn: true, Give: core.FactHotspot,
	Fn: func(ctx *core.Context, d *core.Design) error {
		if err := runFailPoint(ctx, d, ""); err != nil {
			return err
		}
		fp := minic.Fingerprint(d.Prog)
		res, err := profiledRun(ctx, d, "", fp)
		if err != nil {
			return err
		}
		hs, share := res.Prof.Hotspot()
		if hs == nil {
			return fmt.Errorf("no loops executed; nothing to accelerate")
		}
		d.Report.HotspotLoopID = hs.ID
		d.Report.HotspotShare = share
		d.Report.HotspotCycles = hs.Cycles
		d.HotspotProf, d.HotspotLoops, d.HotspotFP = res.Prof, nil, fp
		d.Tracef("note", "hotspot", "loop #%d in %s at %s: %.1f%% of %.3g cycles",
			hs.ID, hs.Func, hs.Pos, share*100, res.Prof.Cycles)
		return nil
	},
}

// ExtractHotspot is the "Hotspot Loop Extraction" transform: the detected
// hotspot loop is outlined into an isolated kernel function and replaced
// by a call (the partitioning stage).
var ExtractHotspot = core.TaskFunc{
	TaskName: "Hotspot Loop Extraction", TaskKind: core.Transform,
	Need: core.FactHotspot, Give: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		// Outlining moves the loop out of its host and renumbers the program
		// from the host on, so the design copies the host and what follows
		// it (EditFrom) and looks the loop up again in its copy.
		id := d.Report.HotspotLoopID
		host, _ := loopByID(d.Prog.Funcs, id)
		if host == nil {
			return fmt.Errorf("hotspot loop #%d not found", id)
		}
		host = d.EditFrom(host)
		_, loop := loopByID([]*minic.FuncDecl{host}, id)
		// The hotspot run's profile stands for the outlined program when the
		// loop outlined here is the loop it watched, in the program it ran;
		// HotspotLoops marks it so for the kernel analyses (kernelProfile).
		var watched []int
		if d.HotspotProf != nil && d.HotspotProf.WatchLoop == loop.ID() &&
			minic.Fingerprint(d.Prog) == d.HotspotFP {
			watched = append(watched, loop.ID())
			for _, l := range query.InnerLoops(loop) {
				watched = append(watched, l.ID())
			}
		}
		kernelName := d.Name + "_hotspot"
		kernel, err := transform.ExtractHotspot(d.Prog, host, loop, kernelName)
		if err != nil {
			return err
		}
		d.Kernel = kernel.Name
		if watched != nil {
			d.HotspotLoops, d.HotspotFP = watched, minic.Fingerprint(d.Prog)
		} else {
			d.HotspotProf = nil
		}
		d.Tracef("note", "extract", "kernel %s(%d params) outlined from %s",
			kernel.Name, len(kernel.Params), host.Name)
		return nil
	},
}

// loopByID returns the loop numbered id and the function of funcs that
// holds it; nil, nil if there is none.
func loopByID(funcs []*minic.FuncDecl, id int) (*minic.FuncDecl, minic.Stmt) {
	for _, f := range funcs {
		var loop minic.Stmt
		minic.Walk(f, func(n minic.Node) bool {
			if n.ID() == id && query.IsLoop(n) {
				loop = n.(minic.Stmt)
			}
			return loop == nil
		})
		if loop != nil {
			return f, loop
		}
	}
	return nil, nil
}

// kernelProfile returns the profile of the kernel's executions on the
// workload for the three dynamic kernel analyses, and the IDs it records
// the kernel's loops under, in depth-first source order (nil: the kernel's
// own). While the design's program is still the one ExtractHotspot left,
// that is the hotspot run's profile, which watched the loop as the kernel
// it became; a flow that has rewritten the program since — or whose hotspot
// run published no record of that loop — runs the current program with the
// kernel watched, once for the three of them through the run cache.
func kernelProfile(ctx *core.Context, d *core.Design) (*interp.Profile, []int, error) {
	if err := runFailPoint(ctx, d, d.Kernel); err != nil {
		return nil, nil, err
	}
	fp := minic.Fingerprint(d.Prog)
	if d.HotspotLoops != nil && fp == d.HotspotFP {
		return d.HotspotProf, d.HotspotLoops, nil
	}
	res, err := profiledRun(ctx, d, d.Kernel, fp)
	if err != nil {
		return nil, nil, err
	}
	return res.Prof, nil, nil
}

// PointerAnalysis is the dynamic pointer alias analysis: the application
// runs with the kernel watched, and any two pointer parameters observed
// bound to overlapping memory abort accelerator offloading (generated
// designs assume restrict semantics).
var PointerAnalysis = core.TaskFunc{
	TaskName: "Pointer Analysis", TaskKind: core.Analysis, IsDyn: true, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		prof, _, err := kernelProfile(ctx, d)
		if err != nil {
			return err
		}
		d.Report.AliasPairs = prof.AliasPairs()
		if len(d.Report.AliasPairs) > 0 {
			return fmt.Errorf("kernel pointer parameters alias: %v", d.Report.AliasPairs)
		}
		return nil
	},
}

// ArithmeticIntensity is the static arithmetic intensity analysis:
// FLOPs per byte of the kernel datapath, indicating compute- vs
// memory-bound behaviour.
var ArithmeticIntensity = core.TaskFunc{
	TaskName: "Arithmetic Intensity Analysis", TaskKind: core.Analysis, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		ops := analysis.WeightedOps(d.KernelFunc())
		d.Report.StaticAI = ops.AI()
		d.Tracef("note", "ai", "static FLOPs/B = %.3f", d.Report.StaticAI)
		return nil
	},
}

// DataInOut is the dynamic data movement analysis: bytes that must reach
// and leave an accelerator hosting the kernel, plus total kernel traffic.
var DataInOut = core.TaskFunc{
	TaskName: "Data In/Out Analysis", TaskKind: core.Analysis, IsDyn: true, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		prof, _, err := kernelProfile(ctx, d)
		if err != nil {
			return err
		}
		// Transfer volume: each kernel pointer argument moves its touched
		// footprint once per direction (offload granularity), not once per
		// dynamic access. Footprint = unique elements ~ buffer length; we
		// approximate with the observed element range via traffic element
		// counts capped by buffer size.
		var in, out float64
		for _, t := range prof.ParamTraffic {
			if t.BytesIn > 0 {
				in += footprintBytes(prof, t, true)
			}
			if t.BytesOut > 0 {
				out += footprintBytes(prof, t, false)
			}
		}
		d.Report.BytesIn = in
		d.Report.BytesOut = out
		// Device-memory traffic model: on-chip reuse captures temporal
		// locality, so the DRAM-visible traffic of a kernel is its data
		// footprint (the same quantity that crosses the host link).
		d.Report.KernelBytes = in + out
		d.Report.KernelFlops = float64(prof.WatchFlops)
		d.Report.SpecialFlops = float64(prof.WatchSpecialFlops)
		d.Report.HotspotCycles = prof.WatchCycles
		d.Report.Calls = float64(prof.WatchCalls)
		// The strategy's FLOPs/B uses the measured footprint (roofline
		// convention with cache-resident working sets).
		if in+out > 0 {
			d.Report.DynamicAI = d.Report.KernelFlops / (in + out)
		}
		d.Tracef("note", "datainout", "in=%.0fB out=%.0fB traffic=%.0fB dynAI=%.2f",
			in, out, d.Report.KernelBytes, d.Report.DynamicAI)
		return nil
	},
}

// footprintBytes estimates the transferred footprint of one pointer
// parameter: the buffer it was bound to, moved once.
func footprintBytes(prof *interp.Profile, t *interp.Traffic, in bool) float64 {
	if buf, ok := prof.BoundBuf(t.Param); ok {
		return float64(int64(buf.Len) * buf.ElemBytes())
	}
	// Fallback: unique-access approximation.
	if in {
		return float64(t.BytesIn)
	}
	return float64(t.BytesOut)
}

// LoopDependence is the static loop dependence analysis on the kernel's
// outer loop, plus the inner-loop unrollability summary the PSA strategy
// needs.
var LoopDependence = core.TaskFunc{
	TaskName: "Loop Dependence Analysis", TaskKind: core.Analysis,
	Need: core.FactKernel, Give: core.FactDeps,
	Fn: func(ctx *core.Context, d *core.Design) error {
		kfn := d.KernelFunc()
		outer := query.OutermostLoops(kfn)
		if len(outer) == 0 {
			return fmt.Errorf("kernel has no loops")
		}
		d.Report.OuterDeps = analysis.AnalyzeLoop(outer[0])
		d.Report.Unroll = analysis.AnalyzeUnrollability(outer[0], FullyUnrollableLimit)
		d.Report.RegsEstimate = analysis.RegisterEstimate(kfn)
		d.Tracef("note", "deps", "outer parallel=%t reductionOnly=%t innerWithDeps=%d allDepsFixed=%t regs=%d",
			d.Report.OuterDeps.Parallel(), d.Report.OuterDeps.ParallelWithReduction(),
			d.Report.Unroll.InnerWithDeps, d.Report.Unroll.AllDepsFixed, d.Report.RegsEstimate)
		return nil
	},
}

// TripCount is the dynamic loop trip-count analysis: characterizes the
// kernel's loop structure (outer trips for thread mapping, pipelined trips
// and sequential chain depth for the FPGA/GPU models).
var TripCount = core.TaskFunc{
	TaskName: "Loop Trip-Count Analysis", TaskKind: core.Analysis, IsDyn: true, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		kfn := d.KernelFunc()
		prof, ids, err := kernelProfile(ctx, d)
		if err != nil {
			return err
		}
		outer := query.OutermostLoops(kfn)
		if len(outer) == 0 {
			return fmt.Errorf("kernel has no loops")
		}
		// The kernel's loops in depth-first source order, outer[0] first;
		// the hotspot run's profile knows the i-th of them as ids[i].
		loops := query.LoopsIn(kfn)
		loopProf := func(i int) *interp.LoopProfile {
			if ids != nil {
				return prof.Loops[ids[i]]
			}
			return prof.Loops[loops[i].ID()]
		}
		outerProf := loopProf(0)
		if outerProf == nil {
			return fmt.Errorf("outer loop did not execute")
		}
		d.Report.OuterTrips = float64(outerProf.Trips)

		// Pipelined trips: the deepest non-fixed loop's total iterations.
		pipelined := float64(outerProf.Trips)
		serial := 0.0
		for i, l := range loops {
			if _, fixed := query.FixedTripCount(l); fixed {
				continue
			}
			lp := loopProf(i)
			if lp == nil {
				continue
			}
			if float64(lp.Trips) > pipelined {
				pipelined = float64(lp.Trips)
			}
			if l != outer[0] {
				deps := analysis.AnalyzeLoop(l)
				if !deps.Parallel() {
					serial = math.Max(serial, lp.AvgTrips())
				}
			}
		}
		// Fixed inner dependence loops also serialize GPU threads.
		for _, l := range query.InnerLoops(outer[0]) {
			if n, fixed := query.FixedTripCount(l); fixed {
				deps := analysis.AnalyzeLoop(l)
				if !deps.Parallel() {
					serial = math.Max(serial, float64(n))
				}
			}
		}
		d.Report.PipelinedTrips = pipelined
		d.Report.SerialDepth = serial
		d.Tracef("note", "trips", "outer=%.0f pipelined=%.0f serialDepth=%.1f",
			d.Report.OuterTrips, pipelined, serial)
		return nil
	},
}

// RemovePlusEqDep is the "Remove Array += Dependency" transform: array
// read-modify-write accumulations with loop-invariant subscripts become
// scalar accumulations, unblocking HLS pipelining and GPU register
// allocation. Functional equivalence is re-verified by execution.
var RemovePlusEqDep = core.TaskFunc{
	TaskName: "Remove Array += Dependency", TaskKind: core.Transform, IsDyn: true, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		n, err := transform.RemovePlusEqDep(d.Prog, d.EditKernel())
		if err != nil {
			return err
		}
		if n > 0 {
			d.Tracef("note", "plusEq", "%d accumulation(s) rewritten", n)
			if _, err := runWorkload(ctx, d, d.Kernel); err != nil {
				return fmt.Errorf("transformed program fails to execute: %w", err)
			}
		}
		return nil
	},
}

// TargetIndependent returns the shared front of the implemented PSA-flow
// (paper Fig. 4, "Target-Indep. Tasks").
func TargetIndependent() []core.Task {
	return []core.Task{
		IdentifyHotspots,
		ExtractHotspot,
		PointerAnalysis,
		ArithmeticIntensity,
		DataInOut,
		LoopDependence,
		TripCount,
		RemovePlusEqDep,
	}
}
