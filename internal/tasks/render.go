package tasks

import (
	"psaflow/internal/codegen"
	"psaflow/internal/core"
	"psaflow/internal/events"
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
		art, err := Render(d)
		if err != nil {
			return err
		}
		d.Artifact = art
		d.Record(events.NoteRender, "render", []string{art.Target}, float64(art.LOC), float64(art.AddedLOC))
		return nil
	},
}

// Render generates d's source for its target and device. It reads d and
// writes nothing, so any number of designs may be rendered at once.
func Render(d *core.Design) (*codegen.Design, error) {
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
	switch d.Target {
	case platform.TargetCPU:
		return codegen.OpenMP(d.Prog, d.RefLOC, opts)
	case platform.TargetGPU:
		return codegen.HIP(d.Prog, d.RefLOC, opts)
	default: // platform.TargetFPGA
		return codegen.OneAPI(d.Prog, d.RefLOC, opts)
	}
}
