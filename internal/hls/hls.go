// Package hls simulates the FPGA high-level-synthesis toolchain the paper
// drives through oneAPI/dpcpp partial compiles: it estimates the resource
// footprint (ALMs, DSPs, BRAM) of a MiniC kernel datapath, applies unroll
// pragmas, and produces the utilisation report that the
// unroll-until-overmap DSE consumes (paper Fig. 2). Costs are
// per-operator estimates in the range published for Intel FPGA floating
// point IP; absolute accuracy is not required — the DSE only needs the
// monotone resource-vs-unroll curve and a realistic overmap point.
package hls

import (
	"fmt"
	"strconv"
	"strings"

	"psaflow/internal/analysis"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/query"
)

// opCost is the resource footprint of one hardware operator instance.
type opCost struct {
	alms int
	dsps int
}

// Operator cost table: double-precision (dp) and single-precision (sp)
// variants.
var (
	costAddDP   = opCost{alms: 1100, dsps: 0}
	costAddSP   = opCost{alms: 550, dsps: 0}
	costMulDP   = opCost{alms: 500, dsps: 6}
	costMulSP   = opCost{alms: 250, dsps: 1}
	costDivDP   = opCost{alms: 7800, dsps: 0}
	costDivSP   = opCost{alms: 3600, dsps: 0}
	costCmp     = opCost{alms: 300, dsps: 0}
	costIntOp   = opCost{alms: 150, dsps: 0}
	costLSU     = opCost{alms: 2100, dsps: 0} // load/store unit per memory op site
	costLoopCtl = opCost{alms: 1400, dsps: 0}

	specialDP = map[string]opCost{
		"sqrt": {alms: 9200, dsps: 0},
		"exp":  {alms: 31000, dsps: 24},
		"log":  {alms: 30000, dsps: 24},
		"pow":  {alms: 62000, dsps: 48},
		"sin":  {alms: 26000, dsps: 16},
		"cos":  {alms: 26000, dsps: 16},
		"tanh": {alms: 33000, dsps: 24},
		"erf":  {alms: 36000, dsps: 28},
	}
	specialSP = map[string]opCost{
		"sqrt": {alms: 4300, dsps: 0},
		"exp":  {alms: 10000, dsps: 10},
		"log":  {alms: 10000, dsps: 10},
		"pow":  {alms: 22000, dsps: 20},
		"sin":  {alms: 10500, dsps: 8},
		"cos":  {alms: 10500, dsps: 8},
		"tanh": {alms: 13000, dsps: 10},
		"erf":  {alms: 10500, dsps: 10},
	}
)

// shellALMs models the board support package / PCIe shell overhead that is
// resident on the device before any kernel logic.
const shellALMs = 50000

// OvermapThreshold is the LUT utilisation above which the DSE considers
// the design overmapped (paper Fig. 2 uses 90%).
const OvermapThreshold = 0.90

// Report is the estimated high-level design report for one kernel on one
// device — the artifact the paper's meta-programs parse out of the oneAPI
// partial compile.
type Report struct {
	Device         string
	Kernel         string
	Unroll         int     // outer unroll factor applied (from pragma, min 1)
	ALMs           int     // estimated logic
	DSPs           int     // estimated DSP blocks
	BRAMBits       int64   // estimated on-chip RAM
	LUTUtil        float64 // ALMs / device ALMs
	DSPUtil        float64
	RAMUtil        float64
	FmaxHz         float64 // achievable clock after utilisation derate
	II             int     // pipeline initiation interval of the remaining loop nest
	PipelinedTrips float64 // dynamic iterations of the pipelined loop nest (if known)
	Fits           bool    // LUTUtil < OvermapThreshold and DSPUtil < 1
	SinglePrec     bool
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s kernel=%s unroll=%d LUT=%.1f%% DSP=%.1f%% II=%d fmax=%.0fMHz fits=%t",
		r.Device, r.Kernel, r.Unroll, r.LUTUtil*100, r.DSPUtil*100, r.II, r.FmaxHz/1e6, r.Fits)
}

// kernelPrecision reports whether the kernel has been demoted to single
// precision by the SP transforms: all float literals single and no
// double-precision special-function calls.
func kernelPrecision(fn *minic.FuncDecl) bool {
	single := true
	minic.Walk(fn, func(n minic.Node) bool {
		if v, ok := n.(*minic.FloatLit); ok && !v.Single {
			single = false
		}
		return single
	})
	return single && !analysis.HasDPSpecialCalls(fn)
}

// unrollPragmaFactor extracts the factor of an "unroll N" pragma attached
// to the outermost loop of fn; returns 1 when absent.
func unrollPragmaFactor(fn *minic.FuncDecl) int {
	var pragmas []string
	switch l := query.FirstOutermostLoop(fn).(type) {
	case *minic.ForStmt:
		pragmas = l.Pragmas
	case *minic.WhileStmt:
		pragmas = l.Pragmas
	}
	for _, p := range pragmas {
		fields := strings.Fields(p)
		if len(fields) == 2 && fields[0] == "unroll" {
			if n, err := strconv.Atoi(fields[1]); err == nil && n >= 1 {
				return n
			}
		}
	}
	return 1
}

// Estimate produces the high-level design report for kernel fn on device
// dev: the kernel's datapath replicated by the unroll pragma factor on its
// outer loop. pipelinedTrips, when known from dynamic analysis, is
// recorded for the performance model. prog is not read; the kernel alone
// determines the report. Estimate counts nothing: a task that runs one
// counts it as a partial compile (telemetry.CounterHLSPartialCompiles).
func Estimate(prog *minic.Program, fn *minic.FuncDecl, dev platform.FPGASpec, pipelinedTrips float64) *Report {
	return CostDatapath(fn).Replicate(dev, unrollPragmaFactor(fn), pipelinedTrips)
}

// Datapath is the cost of one copy of a kernel's datapath — everything a
// partial compile reports that does not depend on the device or on the
// outer loop's unroll factor. The Fig. 2 walk costs it once and calls
// Replicate per candidate factor.
type Datapath struct {
	Kernel     string
	ALMs       int   // logic of one copy, without the shell
	DSPs       int   // DSP blocks of one copy
	BRAMBits   int64 // local arrays of one copy
	II         int   // pipeline initiation interval of the remaining loop nest
	SinglePrec bool
}

// CostDatapath costs kernel fn from its AST, with statically-fixed inner
// loops counted spatially (they will be fully unrolled in hardware). The
// result holds until the kernel is rewritten or a fixed-trip loop's
// "unroll 1" marking (analysis.LoopMarkedRolled) changes.
func CostDatapath(fn *minic.FuncDecl) *Datapath {
	dp := &Datapath{Kernel: fn.Name, SinglePrec: kernelPrecision(fn)}
	ops := analysis.WeightedOps(fn)

	addC, mulC, divC := costAddDP, costMulDP, costDivDP
	spTable := specialDP
	if dp.SinglePrec {
		addC, mulC, divC = costAddSP, costMulSP, costDivSP
		spTable = specialSP
	}
	scale := func(c opCost, n float64) {
		dp.ALMs += int(float64(c.alms) * n)
		dp.DSPs += int(float64(c.dsps) * n)
	}
	scale(addC, ops.AddSub)
	scale(mulC, ops.Mul)
	scale(divC, ops.Div)
	scale(costCmp, ops.Cmp)
	scale(costIntOp, ops.IntOps)
	scale(costLSU, ops.Loads+ops.Stores)
	for name, n := range ops.SpecialK {
		in, _ := minic.LookupIntrinsic(name)
		table := spTable
		if in.Result == minic.Float {
			table = specialSP
		}
		scale(table[in.Family], n)
	}
	// Control logic per loop in the kernel.
	loops := query.LoopsIn(fn)
	scale(costLoopCtl, float64(len(loops))+1)

	// On-chip RAM: local arrays.
	minic.Walk(fn, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok && d.ArrayLen != nil {
			if l, ok := d.ArrayLen.(*minic.IntLit); ok {
				dp.BRAMBits += l.Val * 8 * d.Type.Kind.Size()
			}
		}
		return true
	})
	dp.II = estimateII(loops)
	return dp
}

// Replicate is the closed-form report for unroll copies of the datapath
// next to the shell on device dev.
func (dp *Datapath) Replicate(dev platform.FPGASpec, unroll int, pipelinedTrips float64) *Report {
	r := &Report{
		Device:         dev.Name,
		Kernel:         dp.Kernel,
		Unroll:         unroll,
		ALMs:           dp.ALMs*unroll + shellALMs,
		DSPs:           dp.DSPs * unroll,
		BRAMBits:       dp.BRAMBits * int64(unroll),
		II:             dp.II,
		SinglePrec:     dp.SinglePrec,
		PipelinedTrips: pipelinedTrips,
		FmaxHz:         dev.ClockHz,
	}
	r.LUTUtil = float64(r.ALMs) / float64(dev.ALMs)
	r.DSPUtil = float64(r.DSPs) / float64(dev.DSPs)
	r.RAMUtil = float64(r.BRAMBits) / float64(dev.BRAMBits)
	if r.LUTUtil > 0.75 {
		r.FmaxHz *= 0.88 // routing congestion derate on nearly-full devices
	}
	r.Fits = r.LUTUtil < OvermapThreshold && r.DSPUtil < 1.0 && r.RAMUtil < 1.0
	return r
}

// estimateII computes the pipeline initiation interval of the loop nest
// that remains after fixed inner loops are spatially unrolled: II=1 when
// the innermost remaining loop carries no dependence (or only removable
// reductions already rewritten), otherwise the accumulation latency.
func estimateII(loops []minic.Stmt) int {
	ii := 1
	for _, l := range loops {
		if _, fixed := query.FixedTripCount(l); fixed && !analysis.LoopMarkedRolled(l) {
			continue // will be fully unrolled spatially
		}
		deps := analysis.AnalyzeLoop(l)
		if !deps.Parallel() {
			// A carried dependence in a pipelined loop forces II up to the
			// accumulation latency.
			ii = 8
		}
	}
	return ii
}
