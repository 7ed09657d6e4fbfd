// Package core implements the paper's primary contribution: PSA-flows —
// programmatic, customizable, reusable design-flows composed of codified
// tasks and branch points with Path Selection Automation. A flow consumes
// a technology-agnostic design (MiniC source + workload) and produces one
// or more specialized designs (multi-thread CPU, CPU+GPU, CPU+FPGA),
// forking the design at branch points and recording full provenance.
package core

import (
	"slices"
	"strings"

	"psaflow/internal/analysis"
	"psaflow/internal/codegen"
	"psaflow/internal/events"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
)

// Workload supplies a runnable input configuration for dynamic analyses:
// the entry function and freshly allocated argument buffers. Args must
// return independent buffers on every call so repeated instrumented runs
// observe identical initial state.
type Workload interface {
	Name() string
	Entry() string
	Args() []interp.Value
}

// KernelReport accumulates everything the analysis tasks learn about the
// extracted hotspot kernel; the PSA strategies and performance models read
// from it.
type KernelReport struct {
	// Hotspot detection (dynamic).
	HotspotLoopID int
	HotspotShare  float64 // fraction of total reference cycles
	HotspotCycles float64

	// Kernel-level dynamic measurements.
	KernelFlops    float64
	SpecialFlops   float64 // FLOPs from transcendental builtins
	BytesIn        float64
	BytesOut       float64
	KernelBytes    float64 // total memory traffic inside the kernel
	OuterTrips     float64 // trips of the kernel's outer loop per invocation
	PipelinedTrips float64
	SerialDepth    float64 // mean trips of dep-carrying inner loops
	Calls          float64 // kernel invocations observed in the profiling run

	// Static analyses.
	AliasPairs   [][2]string
	DynamicAI    float64
	StaticAI     float64
	OuterDeps    *analysis.LoopDeps
	Unroll       analysis.Unrollability
	RegsEstimate int
	SinglePrec   bool
	SpecialDP    bool    // kernel retains double-precision transcendentals
	HeavyFrac    float64 // fraction of special FLOPs from exp/log/tanh/erf
}

// Features assembles the perfmodel view of the kernel.
func (r *KernelReport) Features() perfmodel.KernelFeatures {
	calls := r.Calls
	if calls < 1 {
		calls = 1
	}
	return perfmodel.KernelFeatures{
		HotspotCycles: r.HotspotCycles,
		Flops:         r.KernelFlops,
		SpecialFlops:  r.SpecialFlops,
		Bytes:         r.KernelBytes,
		TransferIn:    r.BytesIn,
		TransferOut:   r.BytesOut,
		Threads:       r.OuterTrips / calls,
		SerialDepth:   r.SerialDepth,
		Calls:         calls,
		Regs:          r.RegsEstimate,
		SinglePrec:    r.SinglePrec,
		SpecialDP:     r.SpecialDP,
		HeavyFrac:     r.HeavyFrac,
	}
}

// TraceEvent records one step of provenance: the format of the events
// table it was recorded with (which fixes its kind), its name and its
// operands. Its text is rendered only when it is read: String, Detail,
// TraceLines.
type TraceEvent struct {
	Name string
	str  string // its first string operand
	// ops holds its numbers and its other strings; nil when it has none.
	ops    *operands
	Format events.Format
	num    uint8 // its numbers are ops.nums[num : num+nnum]
	nnum   uint8
	strs   uint8 // its strings after str are ops.strs[strs : strs+nstr-1]
	nstr   uint8
}

// operands is a slab of trace-event operands. A design fills each slot
// once, before it appends the event that reads it, and never writes it
// again: a fork's copied events read the slots of its parent's slab while
// the fork records into a slab of its own (Design.Record).
type operands struct {
	nums [24]float64
	strs [4]string
}

// Kind is the kind the event's format fixes: "task", "branch", "dse" or
// "note".
func (e TraceEvent) Kind() string { return e.Format.Kind() }

// Detail renders what the event says after its name.
func (e TraceEvent) Detail() string {
	var buf [128]byte
	return string(e.appendDetail(buf[:0]))
}

// String renders the event: "[kind] name", then ": detail" if there is one.
func (e TraceEvent) String() string {
	var buf [192]byte
	return string(e.appendTo(buf[:0]))
}

func (e TraceEvent) appendDetail(dst []byte) []byte {
	var strs [1 + len(operands{}.strs)]string
	var nums []float64
	if e.nstr > 0 {
		strs[0] = e.str
	}
	if e.nstr > 1 {
		copy(strs[1:e.nstr], e.ops.strs[e.strs:])
	}
	if e.nnum > 0 {
		nums = e.ops.nums[e.num : e.num+e.nnum]
	}
	return e.Format.Append(dst, strs[:e.nstr], nums)
}

// appendTo appends the event's line, as String renders it, to dst.
func (e TraceEvent) appendTo(dst []byte) []byte {
	dst = append(dst, '[')
	dst = append(dst, e.Format.Kind()...)
	dst = append(dst, "] "...)
	dst = append(dst, e.Name...)
	n := len(dst)
	if dst = e.appendDetail(append(dst, ": "...)); len(dst) == n+len(": ") {
		dst = dst[:n]
	}
	return dst
}

// TraceLines renders each event as String does, writing them all into one
// string sized beforehand and cutting the lines out of it: two allocations
// for a whole trace. An empty trace has no lines (nil).
func TraceLines(trace []TraceEvent) []string {
	if len(trace) == 0 {
		return nil
	}
	var buf [256]byte
	n := 0
	for i := range trace {
		n += len(trace[i].appendTo(buf[:0]))
	}
	var sb strings.Builder
	sb.Grow(n)
	lines := make([]string, len(trace))
	for i := range trace {
		start := sb.Len()
		sb.Write(trace[i].appendTo(buf[:0]))
		// The builder never writes over what it holds, and it holds n bytes
		// without growing, so each line stays a slice of the one string.
		lines[i] = sb.String()[start:]
	}
	return lines
}

// Design is the unit that flows through a PSA-flow: application source,
// accumulated knowledge, the chosen target/device, and generated
// artifacts.
type Design struct {
	Name   string
	Prog   *minic.Program
	Kernel string // extracted kernel function name; "" before partitioning
	RefLOC int    // line count of the unoptimized reference source (Table I baseline)

	// Target and Device mean something once the design holds FactTarget
	// and FactDevice: TargetKind's zero value is TargetCPU.
	Target platform.TargetKind
	Device string

	Report    *KernelReport
	Trace     []TraceEvent
	Artifact  *codegen.Design // rendered target source
	HLSReport *hls.Report     // FPGA designs only

	// What the hotspot run already measured of the kernel, so that the
	// kernel analyses need not execute the outlined program to learn it.
	// HotspotProf is that run's profile (a cached result: shared and
	// read-only, Fork copies the pointer) and HotspotFP the
	// minic.Fingerprint of the program it describes: the one the run
	// executed (tasks.IdentifyHotspots), then the one tasks.ExtractHotspot
	// outlined from it, if the loop it outlined is the loop the run watched
	// (Profile.WatchLoop). HotspotLoops is set by that outlining and marks
	// the profile as the kernel's: the IDs it records the hotspot loop and
	// the loops below it under, in depth-first source order — the order of
	// the kernel's loops.
	HotspotProf  *interp.Profile
	HotspotLoops []int
	HotspotFP    uint64

	// Tuned parameters found by DSE tasks.
	NumThreads   int
	Blocksize    int
	UnrollFactor int
	Pinned       bool
	ZeroCopy     bool
	SharedMem    []string
	Specialised  bool

	// Estimated design time on the selected device.
	Est        perfmodel.Breakdown
	Infeasible string // non-empty when the design cannot be realized (e.g. FPGA overmap)

	// facts holds what the tasks run on this design have given (TaskFunc.Run).
	facts Fact

	// ops is the slab Record writes operands into, opsNum and opsStr the
	// slots it has filled. A fork starts without one.
	ops            *operands
	opsNum, opsStr int

	// label is what Label returned last, built for the target and device in
	// labelOf; Label builds it again once either has changed.
	label   string
	labelOf labelKey

	// shared is set once Fork has handed Prog's functions to another design
	// too; copied lists the functions this design has copied since, which it
	// alone holds. The zero value owns every function (see EditFrom).
	shared bool
	copied []*minic.FuncDecl
}

// NewDesign wraps a parsed program as the flow input, recording the
// reference line count Table I measures added lines against.
func NewDesign(name string, prog *minic.Program) *Design {
	return &Design{
		Name:   name,
		Prog:   prog,
		Report: &KernelReport{},
		RefLOC: minic.ProgramLOC(prog),
	}
}

// SharedDesign wraps a program that outlives the flow and other flows read
// too: the design starts as a Fork leaves one, sharing every function of
// prog, so its first writer copies what it writes (EditFrom, EditKernel,
// EditLoop) and prog itself is never written. refLOC is prog's RefLOC,
// counted once by the caller that keeps it.
func SharedDesign(name string, prog *minic.Program, refLOC int) *Design {
	return &Design{
		Name:   name,
		Prog:   prog.Share(),
		Report: &KernelReport{},
		RefLOC: refLOC,
		shared: true,
	}
}

// Record appends a provenance event of format f about name: strs are the
// operands of the format's string verbs and nums of the others, in order.
// They are kept as they are, the first string in the event and the rest in
// the design's slab of operands, and nothing is rendered. A %v list
// longer than a slab holds is kept as one string, its items joined by
// spaces, which renders the same.
func (d *Design) Record(f events.Format, name string, strs []string, nums ...float64) {
	e := TraceEvent{Name: name, Format: f, nstr: uint8(len(strs)), nnum: uint8(len(nums))}
	if len(strs) > 0 {
		e.str, strs = strs[0], strs[1:]
	}
	if len(strs) > len(operands{}.strs) {
		e.str, e.nstr, strs = strings.Join(append([]string{e.str}, strs...), " "), 1, nil
	}
	if len(strs) > 0 || len(nums) > 0 {
		if d.ops == nil || d.opsNum+len(nums) > len(d.ops.nums) || d.opsStr+len(strs) > len(d.ops.strs) {
			d.ops, d.opsNum, d.opsStr = new(operands), 0, 0
		}
		e.ops, e.num, e.strs = d.ops, uint8(d.opsNum), uint8(d.opsStr)
		d.opsNum += copy(d.ops.nums[d.opsNum:], nums)
		d.opsStr += copy(d.ops.strs[d.opsStr:], strs)
	}
	if d.Trace == nil {
		d.Trace = make([]TraceEvent, 0, traceStart)
	}
	d.Trace = append(d.Trace, e)
}

// A design's trace starts with room for traceStart events, about what the
// target-independent tasks record, and a fork's copy with room for
// forkRoom more, about what one branch path records.
const (
	traceStart = 32
	forkRoom   = 16
)

// Clone returns an independent deep copy of the report. A plain struct
// copy is not enough: AliasPairs shares its backing array and OuterDeps
// is a pointer, so two forks mutating either would race (or silently
// cross-contaminate analyses) when branch paths run in parallel.
func (r *KernelReport) Clone() *KernelReport {
	if r == nil {
		return nil
	}
	nr := *r
	nr.AliasPairs = append([][2]string(nil), r.AliasPairs...)
	nr.OuterDeps = r.OuterDeps.Clone()
	return &nr
}

// Fork copies the design for a branch path: the report (including its
// alias/dependence results), the provenance trace, the per-design
// artifacts and the facts. The program is not copied: the fork and d share its functions,
// which neither side may write without copying first — EditFrom, EditKernel
// or EditLoop. Fork writes d too (its copies become shared), so a branch
// point takes every fork before any path runs; the forks can then work
// concurrently.
func (d *Design) Fork() *Design {
	d.shared, d.copied = true, nil
	nd := *d
	nd.Prog = d.Prog.Share()
	nd.Report = d.Report.Clone()
	nd.Trace = append(make([]TraceEvent, 0, len(d.Trace)+forkRoom), d.Trace...)
	nd.ops, nd.opsNum, nd.opsStr = nil, 0, 0
	nd.SharedMem = append([]string(nil), d.SharedMem...)
	if d.HLSReport != nil {
		rep := *d.HLSReport
		nd.HLSReport = &rep
	}
	if d.Artifact != nil {
		art := *d.Artifact
		nd.Artifact = &art
	}
	return &nd
}

// KernelFunc returns the extracted kernel function, or nil. It may be
// shared with other designs: read it, or write EditKernel's instead.
func (d *Design) KernelFunc() *minic.FuncDecl {
	if d.Kernel == "" {
		return nil
	}
	return d.Prog.Func(d.Kernel)
}

// EditFrom returns f, a function of the program, for writing (nil if it is
// not one): after a Fork, a copy this design alone holds, made on the first
// call together with a copy of every function after f. Those are what
// minic.AssignIDsFrom renumbers after an edit inside f, so the copy serves
// any edit of f, one that adds or removes nodes too; the functions before
// f stay shared. The copies keep every node ID.
func (d *Design) EditFrom(f *minic.FuncDecl) *minic.FuncDecl {
	i := slices.Index(d.Prog.Funcs, f)
	if i < 0 {
		return nil
	}
	for j, g := range d.Prog.Funcs[i:] {
		if d.shared && !slices.Contains(d.copied, g) {
			g = minic.CloneFunc(g)
			d.Prog.Funcs[i+j] = g
			d.copied = append(d.copied, g)
		}
	}
	return d.Prog.Funcs[i]
}

// EditKernel returns the extracted kernel function (nil if there is none)
// for writing: EditFrom of the kernel, which is the last function, so after
// a Fork only the kernel is copied.
func (d *Design) EditKernel() *minic.FuncDecl {
	return d.EditFrom(d.KernelFunc())
}

// EditLoop returns loop, a loop of the kernel outside any other loop, for
// writing its pragmas and nothing else. After a Fork that is a copy of the
// path down to it (minic.CopyPath), installed as this design's kernel; the
// loop's header and body and every statement off the path stay shared. The
// kernel is only partly this design's then, so it is not marked copied: a
// later EditKernel still copies it whole. A design that owns its kernel
// gets loop back as it is; a shared kernel without loop gives nil.
func (d *Design) EditLoop(loop minic.Stmt) minic.Stmt {
	if !d.shared {
		return loop
	}
	for i, f := range d.Prog.Funcs {
		if f.Name == d.Kernel && !slices.Contains(d.copied, f) {
			cf, cl := minic.CopyPath(f, loop)
			if cf != nil {
				d.Prog.Funcs[i] = cf
			}
			return cl
		}
	}
	return loop
}

// labelKey is what a design's label is built from beside its name.
type labelKey struct {
	chosen bool // the design holds FactTarget
	target platform.TargetKind
	device string
}

// Label names the design for reports: "nbody/gpu/RTX 2080 Ti", or the
// app alone, "nbody", before a task has chosen its target. The string is
// kept on the design and built again only after the target or the device
// has changed.
func (d *Design) Label() string {
	key := labelKey{d.Holds(FactTarget), d.Target, d.Device}
	if d.label != "" && key == d.labelOf {
		return d.label
	}
	switch {
	case !key.chosen:
		d.label = d.Name
	case d.Device == "":
		d.label = d.Name + "/" + d.Target.String()
	default:
		d.label = d.Name + "/" + d.Target.String() + "/" + d.Device
	}
	d.labelOf = key
	return d.label
}

// Holds reports whether the tasks run on d have given every fact in f.
func (d *Design) Holds(f Fact) bool { return d.facts&f == f }

// TargetName names the target class a task chose for d, or is "" before
// one did: reports never name the zero TargetKind as a choice.
func (d *Design) TargetName() string {
	if !d.Holds(FactTarget) {
		return ""
	}
	return d.Target.String()
}
