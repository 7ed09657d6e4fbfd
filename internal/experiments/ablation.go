package experiments

import (
	"context"
	"fmt"
	"strings"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/platform"
	"psaflow/internal/tasks"
)

// Ablations quantify the design choices the paper's flow makes: each row
// re-runs one benchmark through the built-in uninformed flow with one
// optimisation task removed (or, for resource sharing, switched on) and
// reports the speedup delta of one device's design.

// AblationRow is one ablation result.
type AblationRow struct {
	Name      string // what was ablated
	Benchmark string
	Device    string
	Baseline  float64 // speedup with the paper's flow
	Ablated   float64 // speedup with the variant
	Note      string
}

// ablation is one row as data: the built-in flow of opts, Without the
// tasks, run on bench and read at device. The note is fixed or, with
// overmapNote set, starts with whether the ablated design synthesizes.
type ablation struct {
	name, bench, device string
	opts                tasks.FlowOptions
	without             []core.Task
	overmapNote, note   string
}

// ablationTable lists the rows of EXPERIMENTS.md "Ablations".
func ablationTable() []ablation {
	uninformed := tasks.FlowOptions{Mode: tasks.Uninformed}
	singlePrec := []core.Task{tasks.SinglePrecisionFns, tasks.SinglePrecisionLiterals}
	s10, g2080 := platform.Stratix10, platform.RTX2080Ti
	return []ablation{
		// The DP datapath balloons; for AdPredictor it overmaps the device.
		{name: "Employ SP Math Fns + Literals (off)", bench: "adpredictor", device: s10.Name, opts: uninformed,
			without: singlePrec, overmapNote: "DP transcendental units overmap"},
		{name: "Zero-Copy Data Transfer (off)", bench: "adpredictor", device: s10.Name, opts: uninformed,
			without: []core.Task{tasks.ZeroCopy(s10)}, note: "PCIe staging instead of USM streaming"},
		{name: "Unroll Fixed Loops (off)", bench: "adpredictor", device: s10.Name, opts: uninformed,
			without: []core.Task{tasks.UnrollFixedLoopsTask},
			note:    "no model effect: the HLS estimator auto-unrolls fixed loops (source materialization is cosmetic)"},
		// A transfer-sensitive benchmark.
		{name: "Employ HIP Pinned Memory (off)", bench: "kmeans", device: g2080.Name, opts: uninformed,
			without: []core.Task{tasks.PinnedMemory}, note: "pageable PCIe transfers"},
		{name: "Employ SP Math Fns + Literals (off)", bench: "nbody", device: g2080.Name, opts: uninformed,
			without: singlePrec, note: "FP64 penalty on consumer GPU"},
		// Rush Larsen's FPGA design becomes synthesizable but much slower —
		// the paper's predicted trade-off.
		{name: "Resource sharing (added; paper future work)", bench: "rushlarsen", device: s10.Name,
			opts:        tasks.FlowOptions{Mode: tasks.Uninformed, ResourceSharing: true},
			overmapNote: "still overmaps", note: " (baseline overmaps: 0X)"},
	}
}

// RunAblations evaluates the flow's optimisation tasks one by one. Every
// run goes through RunBenchmarkEnv over one profiled-run cache; a row's
// baseline is the unedited uninformed run of its benchmark, made once per
// benchmark.
func RunAblations(logf func(string, ...any)) ([]AblationRow, error) {
	runs := core.NewRunCache()
	baselines := map[string][]DesignResult{}
	var rows []AblationRow
	for _, a := range ablationTable() {
		b, err := bench.ByName(a.bench)
		if err != nil {
			return nil, err
		}
		flow, err := flowlang.PSAFlow(a.opts).Without(a.without...)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", a.name, err)
		}
		if baselines[b.Name] == nil {
			baselines[b.Name], err = RunBenchmarkEnv(context.Background(), b, nil,
				tasks.FlowOptions{Mode: tasks.Uninformed}, JobEnv{}, nil, nil, runs)
			if err != nil {
				return nil, err
			}
		}
		variant, err := RunBenchmarkEnv(context.Background(), b, nil, a.opts, JobEnv{Flow: flow}, nil, nil, runs)
		if err != nil {
			return nil, err
		}
		base, ablated := designFor(baselines[b.Name], a.device), designFor(variant, a.device)
		if base.Design == nil || ablated.Design == nil {
			return nil, fmt.Errorf("ablation %q: no %s design for %s", a.name, a.device, b.Name)
		}
		note := a.note
		if a.overmapNote != "" {
			note = infeasibleNote(ablated, a.overmapNote) + note
		}
		rows = append(rows, AblationRow{
			Name: a.name, Benchmark: b.Name, Device: a.device,
			Baseline: base.Speedup, Ablated: ablated.Speedup, Note: note,
		})
		if logf != nil {
			logf("ablation %-45s %s/%s: %.1fX -> %.1fX", a.name, b.Name, a.device, base.Speedup, ablated.Speedup)
		}
	}
	return rows, nil
}

// designFor returns the result for one device, zero when there is none.
func designFor(results []DesignResult, device string) DesignResult {
	for _, r := range results {
		if r.Design.Device == device {
			return r
		}
	}
	return DesignResult{}
}

func infeasibleNote(r DesignResult, msg string) string {
	if r.Infeasible {
		return msg
	}
	return "synthesizable"
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-46s %-12s %9s %9s  %s\n", "ablated task", "benchmark", "baseline", "ablated", "note")
	for _, r := range rows {
		base := fmt.Sprintf("%.1fX", r.Baseline)
		abl := fmt.Sprintf("%.1fX", r.Ablated)
		if r.Ablated == 0 {
			abl = "n/a"
		}
		if r.Baseline == 0 {
			base = "n/a"
		}
		fmt.Fprintf(&sb, "%-46s %-12s %9s %9s  %s\n", r.Name, r.Benchmark, base, abl, r.Note)
	}
	return sb.String()
}
