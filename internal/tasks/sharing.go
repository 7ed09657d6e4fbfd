package tasks

import (
	"sort"

	"psaflow/internal/analysis"
	"psaflow/internal/core"
	"psaflow/internal/events"
	"psaflow/internal/hls"
	"psaflow/internal/minic"
	"psaflow/internal/perfmodel"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/telemetry"
	"psaflow/internal/transform"
)

// Resource sharing is the paper's suggested remedy for Rush Larsen's
// unsynthesizable CPU+FPGA designs: "additional strategies, like finer
// partitioning (e.g. loop splitting) and more effective resource area
// reduction, need to be incorporated into the PSA-flow. However, these
// adjustments may potentially impact performance negatively." (§IV-B-iii)
//
// UnrollUntilOvermapWithSharing extends the Fig. 2 DSE: when even the
// un-unrolled datapath overmaps the device, fixed inner loops are marked
// rolled ("#pragma unroll 1") one at a time — largest resource footprint
// first — so their body is instantiated once and time-multiplexed. The
// pipeline then pays the loop's trip count (and its carried-dependence
// initiation interval) per outer iteration, which is exactly the negative
// performance impact the paper predicts; the ablation experiment
// quantifies it.
func UnrollUntilOvermapWithSharing(dev platform.FPGASpec) core.TaskFunc {
	base := UnrollUntilOvermap(dev)
	return core.TaskFunc{
		TaskName: dev.Name + " Unroll Until Overmap DSE (with resource sharing)",
		TaskKind: core.Optimisation, IsDyn: true, Need: base.Need, Give: base.Give,
		Fn: func(ctx *core.Context, d *core.Design) error {
			if err := base.Fn(ctx, d); err != nil {
				return err
			}
			if d.Infeasible == "" {
				return nil // fits without sharing
			}
			shared, extraTrips, err := shareLargestFixedLoops(ctx, d.Prog, d.EditKernel(), dev)
			if err != nil {
				return err
			}
			if shared == 0 {
				return nil // nothing to share; stays infeasible
			}
			d.Record(events.DSESharingRolled, "sharing", nil, float64(shared), extraTrips)
			// Retry the unroll DSE on the shared datapath.
			d.Infeasible = ""
			if err := base.Fn(ctx, d); err != nil {
				return err
			}
			if d.Infeasible != "" {
				return nil
			}
			// The pipeline now iterates the shared loops too.
			rep := *d.HLSReport
			rep.PipelinedTrips *= extraTrips
			d.HLSReport = &rep
			d.Est = perfmodel.FPGATime(dev, d.HLSReport, d.Report.Features(), d.ZeroCopy)
			d.Record(events.DSESharingFinal, "sharing", nil, float64(d.UnrollFactor), float64(rep.II), d.Est.Total)
			return nil
		},
	}
}

// shareLargestFixedLoops marks fixed inner loops rolled, biggest datapath
// first, until the base (unroll=1) design fits the device or no candidate
// remains. Returns how many loops were shared and the product of their
// trip counts (the pipeline trip multiplier).
func shareLargestFixedLoops(ctx *core.Context, prog *minic.Program, kfn *minic.FuncDecl, dev platform.FPGASpec) (int, float64, error) {
	type candidate struct {
		loop  minic.Stmt
		trips int64
		cost  float64
	}
	outer := query.FirstOutermostLoop(kfn)
	if outer == nil {
		return 0, 1, nil
	}
	var cands []candidate
	for _, l := range query.InnerLoops(outer) {
		trips, fixed := query.FixedTripCount(l)
		if !fixed || trips <= 1 || analysis.LoopMarkedRolled(l) {
			continue
		}
		body := l.(*minic.ForStmt)
		ops := analysis.CountOps(body.Body, kfn)
		// Rough spatial cost: ops weighted by trip count.
		cands = append(cands, candidate{loop: l, trips: trips, cost: ops.FlopsW * float64(trips)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cost > cands[j].cost })

	shared := 0
	extra := 1.0
	for _, c := range cands {
		if err := ctx.Interrupted(); err != nil {
			return shared, extra, err
		}
		if err := transform.InsertLoopPragma(c.loop, "unroll 1"); err != nil {
			return shared, extra, err
		}
		shared++
		extra *= float64(c.trips)
		ctx.Count(telemetry.CounterDSESharing, 1)
		ctx.Count(telemetry.CounterHLSPartialCompiles, 1)
		rep := hls.Estimate(prog, kfn, dev, 0)
		ctx.Emit(events.SharingStep, "sharing", []string{dev.Name}, float64(shared), events.Bool(rep.Fits))
		if rep.Fits {
			break
		}
	}
	if shared == 0 {
		return 0, 1, nil
	}
	// Check the final state actually fits at unroll 1.
	ctx.Count(telemetry.CounterHLSPartialCompiles, 1)
	rep := hls.Estimate(prog, kfn, dev, 0)
	if !rep.Fits {
		return 0, 1, nil // sharing could not save the design; leave as-is
	}
	return shared, extra, nil
}
