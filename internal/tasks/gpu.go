package tasks

import (
	"fmt"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/faults"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// GenerateHIP is the "Generate HIP Design" code-generation task: it marks
// the design as a CPU+GPU target. The concrete source text is rendered by
// RenderDesign at the end of the device-specific branch, once the
// blocksize DSE has fixed the launch configuration.
var GenerateHIP = core.TaskFunc{
	TaskName: "Generate HIP Design", TaskKind: core.CodeGen, Need: core.FactKernel, Give: core.FactTarget,
	Fn: func(ctx *core.Context, d *core.Design) error {
		d.Target = platform.TargetGPU
		return nil
	},
}

// PinnedMemory is the "Employ HIP Pinned Memory" transform: host staging
// buffers become page-locked, raising effective PCIe bandwidth.
var PinnedMemory = core.TaskFunc{
	TaskName: "Employ HIP Pinned Memory", TaskKind: core.Transform,
	Fn: func(ctx *core.Context, d *core.Design) error {
		d.Pinned = true
		return nil
	},
}

// SinglePrecisionFns rewrites double-precision math calls in the kernel to
// single-precision forms (the starred "Employ SP Math Fns" task, shared by
// the GPU and FPGA branches).
var SinglePrecisionFns = core.TaskFunc{
	TaskName: "Employ SP Math Fns", TaskKind: core.Transform, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		n := transform.SinglePrecisionFns(d.EditKernel())
		d.Record(events.NoteSPFns, "spfns", nil, float64(n))
		return nil
	},
}

// SinglePrecisionLiterals marks kernel float literals single precision
// (the starred "Employ SP Numeric Literals" task, shared by GPU and FPGA
// branches). After both SP tasks the kernel counts as single precision for
// the device models.
var SinglePrecisionLiterals = core.TaskFunc{
	TaskName: "Employ SP Numeric Literals", TaskKind: core.Transform, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		n := transform.SinglePrecisionLiterals(d.EditKernel())
		d.Report.SinglePrec = true
		d.Record(events.NoteSPLiterals, "spliterals", nil, float64(n))
		return nil
	},
}

// SharedMemBuffer is the "Introduce Shared Mem Buf" transform: read-only
// pointer parameters whose accesses are uniform across the thread block
// are staged through GPU shared memory.
var SharedMemBuffer = core.TaskFunc{
	TaskName: "Introduce Shared Mem Buf", TaskKind: core.Transform, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		kfn := d.KernelFunc()
		// Candidates: const pointer parameters that are read more than
		// once per outer iteration (reuse makes staging worthwhile).
		reads := query.ArraysRead(kfn.Body)
		writes := query.ArraysWritten(kfn.Body)
		var staged []string
		for _, p := range kfn.Params {
			if !p.Type.Ptr || !p.Type.Const {
				continue
			}
			if reads[p.Name] && !writes[p.Name] {
				staged = append(staged, p.Name)
			}
		}
		d.SharedMem = staged
		d.Record(events.NoteSharedMem, "sharedmem", staged)
		return nil
	},
}

// SpecialisedMathFns is the "Employ Specialised Math Fns" transform:
// single-precision libm calls become GPU fast-math intrinsics.
var SpecialisedMathFns = core.TaskFunc{
	TaskName: "Employ Specialised Math Fns", TaskKind: core.Transform, Need: core.FactKernel,
	Fn: func(ctx *core.Context, d *core.Design) error {
		n := transform.SpecialisedMathFns(d.EditKernel())
		d.Specialised = n > 0
		d.Record(events.NoteFastMath, "fastmath", nil, float64(n))
		return nil
	},
}

// BlocksizeDSE returns the per-device blocksize design-space exploration
// task ("GTX 1080 Blocksize DSE" / "RTX 2080 Blocksize DSE"): it sweeps
// launch block sizes on the device model, selecting the one minimizing
// design time, and records the device estimate.
func BlocksizeDSE(dev platform.GPUSpec) core.TaskFunc {
	return core.TaskFunc{
		TaskName: fmt.Sprintf("%s Blocksize DSE", dev.Name), TaskKind: core.Optimisation, IsDyn: true,
		Need: core.FactKernel, Give: core.FactDevice,
		Fn: func(ctx *core.Context, d *core.Design) error {
			// Claiming the board is the per-device DSE's first act; an
			// unavailable device fails the whole path (non-transient, so
			// the branch degrades instead of retrying).
			if err := ctx.FailPoint(faults.Device, dev.Name); err != nil {
				return err
			}
			kfn := d.KernelFunc()
			d.Report.SpecialDP = analysis.HasDPSpecialCalls(kfn)
			d.Report.HeavyFrac = analysis.HeavySpecialFraction(kfn)
			feat := d.Report.Features()
			ctx.Count(telemetry.CounterDSEBlocksize, int64(len(perfmodel.BlocksizeCandidates)))
			bs, bd := perfmodel.BestBlocksize(dev, feat, d.Pinned)
			d.Device = dev.Name
			if bs < 0 {
				ctx.Emit(events.NoBlocksize, "blocksize", []string{dev.Name}, float64(len(perfmodel.BlocksizeCandidates)))
				d.Infeasible = "no feasible blocksize"
				return nil
			}
			ctx.Emit(events.BlocksizeSwept, "blocksize", []string{dev.Name},
				float64(len(perfmodel.BlocksizeCandidates)), float64(bs), bd.Total)
			d.Blocksize = bs
			d.Est = bd
			d.Record(events.DSEBlocksize, "blocksize", []string{bd.Note}, float64(bs), bd.Total)
			return nil
		},
	}
}

// verifyKernelStillRuns re-executes the design after kernel transforms; it
// guards the SP/fast-math rewrites, whose numerics are allowed to drift
// but whose execution must stay valid.
var VerifyKernelRuns = core.TaskFunc{
	TaskName: "Verify Transformed Kernel", TaskKind: core.Analysis, IsDyn: true,
	Fn: func(ctx *core.Context, d *core.Design) error {
		if _, err := runWorkload(ctx, d, d.Kernel); err != nil {
			return fmt.Errorf("transformed kernel fails: %w", err)
		}
		return nil
	},
}
