package tasks

import (
	"psaflow/internal/codegen"
	"psaflow/internal/core"
	"psaflow/internal/platform"
)

// RenderDesign emits the final target source for the design's selected
// target and device — the exported, human-readable implementation the
// paper's flows write out (and whose added lines Table I counts). It runs
// as the last task of every device-specific branch.
var RenderDesign = core.TaskFunc{
	TaskName: "Render Design Source", TaskKind: core.CodeGen, Need: core.FactTarget | core.FactDevice,
	Fn: func(ctx *core.Context, d *core.Design) error {
		if d.Infeasible != "" {
			return nil // unsynthesizable designs are reported, not rendered
		}
		opts := codegen.Options{
			Kernel:       d.Kernel,
			Device:       d.Device,
			NumThreads:   d.NumThreads,
			Blocksize:    d.Blocksize,
			Pinned:       d.Pinned,
			SharedMem:    d.SharedMem,
			Specialised:  d.Specialised,
			ZeroCopy:     d.ZeroCopy,
			UnrollFactor: d.UnrollFactor,
		}
		var (
			art *codegen.Design
			err error
		)
		switch d.Target {
		case platform.TargetCPU:
			art, err = codegen.OpenMP(d.Prog, d.RefLOC, opts)
		case platform.TargetGPU:
			art, err = codegen.HIP(d.Prog, d.RefLOC, opts)
		default: // platform.TargetFPGA
			art, err = codegen.OneAPI(d.Prog, d.RefLOC, opts)
		}
		if err != nil {
			return err
		}
		d.Artifact = art
		d.Tracef("note", "render", "%s design: %d LOC (+%d over reference)",
			art.Target, art.LOC, art.AddedLOC)
		return nil
	},
}
