package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/query"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// fig5Once caches the expensive full-evaluation run across tests.
var (
	fig5Once sync.Once
	fig5Rows []Fig5Row
	fig5Err  error
)

func getFig5(t *testing.T) []Fig5Row {
	t.Helper()
	if testing.Short() {
		t.Skip("full evaluation run (use without -short)")
	}
	fig5Once.Do(func() { fig5Rows, fig5Err = RunFig5(nil, nil) })
	if fig5Err != nil {
		t.Fatalf("RunFig5: %v", fig5Err)
	}
	return fig5Rows
}

func rowOf(t *testing.T, rows []Fig5Row, name string) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.Benchmark == name {
			return r
		}
	}
	t.Fatalf("no row for %s", name)
	return Fig5Row{}
}

// TestFig5InformedSelectsWinner is the paper's headline claim: "the
// informed PSA-flow selects the best target for all of the five
// benchmarks".
func TestFig5InformedSelectsWinner(t *testing.T) {
	rows := getFig5(t)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if !r.InformedPickedWinner(0.05) {
			best, col := r.BestSpeedup()
			t.Errorf("%s: informed auto=%.1fX (%s) is not the winner %.1fX (%s)",
				r.Benchmark, r.Auto, r.AutoTarget, best, col)
		}
	}
}

// TestFig5BranchDecisions checks the target class the Fig. 3 strategy
// picks per benchmark against the paper (§IV-B).
func TestFig5BranchDecisions(t *testing.T) {
	rows := getFig5(t)
	for _, b := range bench.All() {
		r := rowOf(t, rows, b.Name)
		if r.AutoTarget != b.ExpectTarget {
			t.Errorf("%s: informed strategy chose %q, paper chooses %q",
				b.Name, r.AutoTarget, b.ExpectTarget)
		}
	}
}

// band asserts v within [lo, hi].
func band(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.2f, want within [%.2f, %.2f]", what, v, lo, hi)
	}
}

// TestFig5OMPSpeedups: all five benchmarks are embarrassingly parallel, so
// OpenMP lands close to the 32-core count (paper: 28-30X).
func TestFig5OMPSpeedups(t *testing.T) {
	for _, r := range getFig5(t) {
		band(t, r.Benchmark+" OMP", r.OMP, 25, 32)
	}
}

// TestFig5NBody: the GPU designs dominate with the RTX 2080 Ti about 2X
// ahead of the GTX 1080 Ti (paper: 337X vs 751X), and the FPGA designs are
// barely better than a single CPU thread (paper: 1.1X / 1.4X).
func TestFig5NBody(t *testing.T) {
	r := rowOf(t, getFig5(t), "nbody")
	band(t, "nbody 1080", r.GTX1080, 200, 520)
	band(t, "nbody 2080", r.RTX2080, 480, 1100)
	band(t, "nbody 2080/1080 ratio", r.RTX2080/r.GTX1080, 1.7, 2.6)
	band(t, "nbody A10", r.A10, 0.4, 6)
	band(t, "nbody S10", r.S10, 0.8, 10)
	if best, col := r.BestSpeedup(); col != "rtx2080" {
		t.Errorf("nbody winner = %s (%.0fX), want rtx2080", col, best)
	}
}

// TestFig5KMeans: memory-bound; the multi-thread CPU design wins (paper:
// OMP 30X vs GPU 19-24X, FPGA 7/13X).
func TestFig5KMeans(t *testing.T) {
	r := rowOf(t, getFig5(t), "kmeans")
	if best, col := r.BestSpeedup(); col != "omp" {
		t.Errorf("kmeans winner = %s (%.0fX), want omp", col, best)
	}
	band(t, "kmeans 1080", r.GTX1080, 10, 28)
	band(t, "kmeans 2080", r.RTX2080, 10, 28)
	band(t, "kmeans A10", r.A10, 3, 18)
	band(t, "kmeans S10", r.S10, 8, 28)
	if r.S10 <= r.A10 {
		t.Errorf("kmeans S10 (%.1f) should beat A10 (%.1f)", r.S10, r.A10)
	}
	if r.OMP <= r.GTX1080 || r.OMP <= r.S10 {
		t.Errorf("kmeans OMP (%.1f) must beat accelerators (GPU %.1f, S10 %.1f)",
			r.OMP, r.GTX1080, r.S10)
	}
}

// TestFig5AdPredictor: the pipelined Stratix 10 design wins, narrowly
// ahead of OpenMP (paper: 32X vs 28X), with the Arria 10 feasible but
// slower.
func TestFig5AdPredictor(t *testing.T) {
	r := rowOf(t, getFig5(t), "adpredictor")
	if best, col := r.BestSpeedup(); col != "s10" {
		t.Errorf("adpredictor winner = %s (%.0fX), want s10", col, best)
	}
	band(t, "adpredictor S10", r.S10, 25, 45)
	if r.S10 <= r.OMP {
		t.Errorf("S10 (%.1f) must beat OMP (%.1f), as in the paper (32 vs 28)", r.S10, r.OMP)
	}
	if r.A10Overmap {
		t.Error("adpredictor must fit the Arria 10 (paper: 14X)")
	}
	band(t, "adpredictor A10", r.A10, 4, 20)
	band(t, "adpredictor 1080", r.GTX1080, 6, 28)
	band(t, "adpredictor 2080", r.RTX2080, 6, 30)
}

// TestFig5RushLarsen: GPU designs win; the register saturation effect
// leaves the 2080 Ti ~1.5-2X ahead (paper 1.6X: 98 vs 63); both CPU+FPGA
// designs exceed device capacity and are not synthesizable.
func TestFig5RushLarsen(t *testing.T) {
	r := rowOf(t, getFig5(t), "rushlarsen")
	if !r.A10Overmap || !r.S10Overmap {
		t.Fatalf("rush larsen FPGA designs must overmap (paper); a10=%v s10=%v",
			r.A10Overmap, r.S10Overmap)
	}
	band(t, "rush 1080", r.GTX1080, 35, 95)
	band(t, "rush 2080", r.RTX2080, 60, 145)
	band(t, "rush 2080/1080 ratio", r.RTX2080/r.GTX1080, 1.4, 2.2)
	if best, col := r.BestSpeedup(); col != "rtx2080" {
		t.Errorf("rush winner = %s (%.0fX), want rtx2080", col, best)
	}
}

// TestFig5Bezier: the grid does not saturate either GPU, so the two land
// close together (paper 63X vs 67X) and win.
func TestFig5Bezier(t *testing.T) {
	r := rowOf(t, getFig5(t), "bezier")
	band(t, "bezier 1080", r.GTX1080, 40, 110)
	band(t, "bezier 2080", r.RTX2080, 40, 110)
	band(t, "bezier GPU ratio", r.RTX2080/r.GTX1080, 0.85, 1.25)
	if _, col := r.BestSpeedup(); col != "rtx2080" && col != "gtx1080" {
		t.Errorf("bezier winner = %s, want a GPU", col)
	}
	if r.S10 <= r.A10 {
		t.Errorf("bezier S10 (%.1f) should beat A10 (%.1f)", r.S10, r.A10)
	}
}

// TestUninformedGeneratesFiveDesigns: the uninformed mode produces one
// design per device (paper §IV-B).
func TestUninformedGeneratesFiveDesigns(t *testing.T) {
	for _, r := range getFig5(t) {
		if len(r.Designs) != 5 {
			t.Errorf("%s: %d designs, want 5", r.Benchmark, len(r.Designs))
		}
	}
}

// TestFig5UnrollWalkAccounting pins the Fig. 2 walk per benchmark and
// FPGA: factors are tried in doubling order from 1 and the walk stops at
// the first that overmaps, every iteration is exactly one partial compile,
// and the kernel's outer loop is left with the single winning "unroll N"
// pragma (none when even N=1 overmaps). Rush Larsen with resource sharing
// adds the sharing DSE: a rolled loop restarts the walk on the shared
// datapath, and each loop rolled and each device's final check is one
// more partial compile.
func TestFig5UnrollWalkAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	type walkCase struct {
		b        *bench.Benchmark
		sharing  bool
		walks    int64 // unroll walk steps, when pinned
		shared   int64 // dse.sharing.iterations
		compiles int64 // hls.partial_compiles beyond the walk's
	}
	var cases []walkCase
	for _, b := range bench.All() {
		cases = append(cases, walkCase{b: b})
	}
	rl, err := bench.ByName("rushlarsen")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, walkCase{b: rl, sharing: true, walks: 11, shared: 2, compiles: 4})
	for _, c := range cases {
		b := c.b
		rec := telemetry.New()
		results, err := RunBenchmarkEnv(context.Background(), b, nil,
			tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy, ResourceSharing: c.sharing},
			JobEnv{}, nil, rec, core.NewRunCache())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var walked int64
		for _, r := range results {
			d := r.Design
			if d.Target != platform.TargetFPGA {
				continue
			}
			what := b.Name + "/" + d.Device
			next, lastFit, stopped := 1, 0, false
			for _, ev := range d.Trace {
				var n int
				if ev.Kind() == "dse" && ev.Name == "sharing" && strings.HasSuffix(ev.Detail(), "trips") {
					next, lastFit, stopped = 1, 0, false // the walk again, on the shared datapath
					continue
				}
				if ev.Kind() != "dse" || ev.Name != "unroll" {
					continue
				}
				if _, err := fmt.Sscanf(ev.Detail(), "n=%d ", &n); err != nil {
					continue // the walk's closing summary line
				}
				walked++
				if stopped || n != next {
					t.Errorf("%s: walk visited n=%d, want n=%d (stopped=%t)", what, n, next, stopped)
				}
				next = 2 * n
				if strings.HasSuffix(ev.Detail(), "fits=true") {
					lastFit = n
				} else {
					stopped = true
				}
			}
			if !stopped {
				t.Errorf("%s: walk never reached an overmapping factor", what)
			}
			if d.UnrollFactor != lastFit || (lastFit == 0) != (d.Infeasible != "") {
				t.Errorf("%s: unroll=%d infeasible=%q, walk's last fitting factor is %d", what, d.UnrollFactor, d.Infeasible, lastFit)
			}
			outer := query.OutermostLoops(d.KernelFunc())
			if len(outer) == 0 {
				t.Fatalf("%s: kernel has no loop", what)
			}
			var unroll []string
			for _, p := range outer[0].(*minic.ForStmt).Pragmas {
				if strings.HasPrefix(p, "unroll") {
					unroll = append(unroll, p)
				}
			}
			var want []string
			if lastFit > 0 {
				want = []string{fmt.Sprintf("unroll %d", lastFit)}
			}
			if !reflect.DeepEqual(unroll, want) {
				t.Errorf("%s: outer-loop unroll pragmas = %q, want %q", what, unroll, want)
			}
		}
		iters, compiles := rec.Counter(telemetry.CounterDSEUnroll), rec.Counter(telemetry.CounterHLSPartialCompiles)
		if walked == 0 || iters != walked || compiles != walked+c.compiles || (c.walks != 0 && walked != c.walks) {
			t.Errorf("%s (sharing=%t): %d walk steps traced, dse.unroll.iterations=%d hls.partial_compiles=%d; want steps = iterations (pinned: %d) and compiles = steps + %d",
				b.Name, c.sharing, walked, iters, compiles, c.walks, c.compiles)
		}
		if shared := rec.Counter(telemetry.CounterDSESharing); shared != c.shared {
			t.Errorf("%s (sharing=%t): dse.sharing.iterations=%d, want %d", b.Name, c.sharing, shared, c.shared)
		}
	}
}

func TestFig5Formatting(t *testing.T) {
	rows := getFig5(t)
	out := FormatFig5(rows)
	for _, want := range []string{"nbody", "overmap", "(paper)", "GTX1080"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

// TestTable1Shape checks the paper's Table I orderings: OMP adds the
// fewest lines, HIP more, oneAPI the most, with zero-copy S10 designs
// above A10; Rush Larsen's FPGA designs are excluded.
func TestTable1Shape(t *testing.T) {
	rows := Table1(getFig5(t))
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RefLOC < 60 {
			t.Errorf("%s: reference LOC %d suspiciously small", r.Benchmark, r.RefLOC)
		}
		if r.Benchmark == "rushlarsen" {
			if len(r.Excluded) != 2 || r.A10 != 0 || r.S10 != 0 {
				t.Errorf("rush FPGA designs must be excluded: %+v", r)
			}
		} else {
			if !(r.OMP < r.HIP1080 && r.HIP1080 <= r.HIP2080+1e-9 && r.HIP2080 <= r.S10+1e-9) {
				t.Errorf("%s: ordering OMP(%f) < HIP(%f) <= S10(%f) violated",
					r.Benchmark, r.OMP, r.HIP1080, r.S10)
			}
			if r.A10 >= r.S10 {
				t.Errorf("%s: S10 (+%.0f%%) must add more than A10 (+%.0f%%) (zero-copy host code)",
					r.Benchmark, r.S10, r.A10)
			}
		}
		if r.OMP <= 0 || r.OMP > 15 {
			t.Errorf("%s: OMP added %.1f%%, want small positive", r.Benchmark, r.OMP)
		}
	}
	avg := Table1Average(rows)
	if avg.Total < 100 {
		t.Errorf("average total %.0f%%, want substantial (paper: 212%%)", avg.Total)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "average") || !strings.Contains(out, "+212%") {
		t.Errorf("format missing expected content")
	}
}

// TestFig6Crossovers: the cost crossover equals the speedup ratio, the
// Rush Larsen series is absent (no FPGA design), and the qualitative
// claims hold: AdPredictor is fastest on the FPGA yet becomes less cost
// effective than the GPU above its crossover; Bezier is faster on the GPU
// yet cheaper on the FPGA when GPU prices rise above the inverse
// crossover.
func TestFig6Crossovers(t *testing.T) {
	rows := getFig5(t)
	series := RunFig6(rows)
	names := map[string]Fig6Series{}
	for _, s := range series {
		names[s.Benchmark] = s
		wantCross := s.SpeedupFPGA / s.SpeedupGPU
		if diff := s.Crossover - wantCross; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: crossover %v != speedup ratio %v", s.Benchmark, s.Crossover, wantCross)
		}
		if len(s.RelCost) != len(Fig6PriceRatios) {
			t.Errorf("%s: curve length %d", s.Benchmark, len(s.RelCost))
		}
		// Relative cost is linear in the price ratio.
		for i := 1; i < len(s.RelCost); i++ {
			if s.RelCost[i] <= s.RelCost[i-1] {
				t.Errorf("%s: curve not increasing", s.Benchmark)
			}
		}
	}
	if _, ok := names["rushlarsen"]; ok {
		t.Error("rush larsen has no synthesizable FPGA design; it must not appear in Fig. 6")
	}
	ad, ok := names["adpredictor"]
	if !ok {
		t.Fatal("adpredictor series missing")
	}
	if ad.Crossover <= 1 {
		t.Errorf("adpredictor crossover %v must exceed 1 (FPGA-favored at parity)", ad.Crossover)
	}
	bz, ok := names["bezier"]
	if !ok {
		t.Fatal("bezier series missing")
	}
	if bz.Crossover >= 1 {
		t.Errorf("bezier crossover %v must be below 1 (GPU-favored at parity)", bz.Crossover)
	}
	out := FormatFig6(series)
	if !strings.Contains(out, "crossover") {
		t.Error("format missing crossover column")
	}
}

// TestEvalDesignDeviceLookup guards the evaluation path against designs
// whose device is not in the catalog.
func TestEvalDesignDeviceLookup(t *testing.T) {
	for _, g := range platform.GPUs() {
		if _, ok := platform.GPUByName(g.Name); !ok {
			t.Errorf("GPU %q not resolvable", g.Name)
		}
	}
	for _, f := range platform.FPGAs() {
		if _, ok := platform.FPGAByName(f.Name); !ok {
			t.Errorf("FPGA %q not resolvable", f.Name)
		}
	}
	if _, ok := platform.GPUByName("bogus"); ok {
		t.Error("bogus GPU resolved")
	}
}

// TestInformedModeRunsSubsetOfTargets: informed mode produces only the
// selected target's designs.
func TestInformedModeRunsSubsetOfTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run")
	}
	b, _ := bench.ByName("kmeans")
	results, err := RunBenchmark(b, tasks.Informed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("kmeans informed designs = %d, want 1 (CPU only)", len(results))
	}
	if results[0].Design.Target != platform.TargetCPU {
		t.Errorf("target = %v", results[0].Design.Target)
	}
}

// TestZeroStrategyIsDefault: FlowOptions with no Strategy builds the graph
// DefaultStrategy builds — the informed flow selects the paper's target on
// all five apps (a zero TransferBW used to make every transfer take for
// ever, so nothing was ever offloaded).
func TestZeroStrategyIsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run")
	}
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		var labels [2][]string
		for i, opts := range []tasks.FlowOptions{{Mode: tasks.Informed}, {Mode: tasks.Informed, Strategy: tasks.DefaultStrategy}} {
			results, err := RunBenchmarkEnv(context.Background(), b, nil, opts, JobEnv{}, nil, nil, runs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				labels[i] = append(labels[i], r.Design.Label())
			}
		}
		if !reflect.DeepEqual(labels[0], labels[1]) {
			t.Errorf("%s: zero Strategy generates %v, DefaultStrategy %v", b.Name, labels[0], labels[1])
		}
	}
}

// TestAblations runs the optimisation-task ablation study and checks its
// qualitative outcomes: SP demotion is load-bearing on FPGAs (DP
// overmaps), zero-copy and pinned memory help, and resource sharing makes
// Rush Larsen synthesizable at a large performance cost (the paper's
// §IV-B-iii prediction).
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	rows, err := RunAblations(nil)
	if err != nil {
		t.Fatalf("RunAblations: %v", err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name+"/"+r.Benchmark] = r
	}
	sp := byName["Employ SP Math Fns + Literals (off)/adpredictor"]
	if sp.Ablated != 0 {
		t.Errorf("DP adpredictor should overmap the Stratix 10, got %.1fX", sp.Ablated)
	}
	zc := byName["Zero-Copy Data Transfer (off)/adpredictor"]
	if zc.Ablated >= zc.Baseline {
		t.Errorf("removing zero-copy must hurt: %.1fX -> %.1fX", zc.Baseline, zc.Ablated)
	}
	pin := byName["Employ HIP Pinned Memory (off)/kmeans"]
	if pin.Ablated >= pin.Baseline {
		t.Errorf("removing pinned memory must hurt: %.1fX -> %.1fX", pin.Baseline, pin.Ablated)
	}
	gsp := byName["Employ SP Math Fns + Literals (off)/nbody"]
	if gsp.Ablated >= gsp.Baseline/4 {
		t.Errorf("FP64 nbody should collapse: %.1fX -> %.1fX", gsp.Baseline, gsp.Ablated)
	}
	share := byName["Resource sharing (added; paper future work)/rushlarsen"]
	if share.Ablated <= 0 {
		t.Error("resource sharing must make rush larsen synthesizable")
	}
	if share.Ablated > 30 {
		t.Errorf("shared rush larsen at %.1fX: sharing should cost most of the speedup", share.Ablated)
	}
	out := FormatAblations(rows)
	if !strings.Contains(out, "Resource sharing") {
		t.Error("format missing sharing row")
	}
	// The published table (EXPERIMENTS.md "Ablations"), byte for byte: the
	// fixture is `psabench -ablate` of the commit before the rows became
	// edits of the built-in flow.
	want, err := os.ReadFile("testdata/ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("ablation table moved:\n--- got\n%s--- want\n%s", out, want)
	}
}

// TestJSONExport round-trips the evaluation report through the export
// DTOs.
func TestJSONExport(t *testing.T) {
	rows := getFig5(t)
	rep := ReportJSON{
		Fig5: Fig5ToJSON(rows),
		Fig6: RunFig6(rows),
	}
	data, err := MarshalReport(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ReportJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Fig5) != 5 {
		t.Fatalf("fig5 rows = %d", len(back.Fig5))
	}
	for _, r := range back.Fig5 {
		if len(r.Designs) != 5 {
			t.Errorf("%s: %d designs in export", r.Benchmark, len(r.Designs))
		}
		if len(r.Paper) != 6 {
			t.Errorf("%s: paper reference missing", r.Benchmark)
		}
	}
	var rush *Fig5JSON
	for i := range back.Fig5 {
		if back.Fig5[i].Benchmark == "rushlarsen" {
			rush = &back.Fig5[i]
		}
	}
	if rush == nil || !rush.A10Overmap || !rush.S10Overmap {
		t.Error("rush overmap flags lost in export")
	}
	if !strings.Contains(string(data), "auto_target") {
		t.Error("JSON field names changed")
	}
}

// TestSharingFlowRecoversRushLarsen: with the resource-sharing option the
// full PSA-flow produces synthesizable Rush Larsen FPGA designs, at a
// fraction of the GPU speedup (paper §IV-B-iii: the adjustments "may
// potentially impact performance negatively").
func TestSharingFlowRecoversRushLarsen(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	b, err := bench.ByName("rushlarsen")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBenchmarkEnv(context.Background(), b, nil,
		tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy, ResourceSharing: true},
		JobEnv{}, nil, nil, core.NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	var s10, gpu2080 *DesignResult
	for i := range results {
		r := &results[i]
		switch r.Design.Device {
		case platform.Stratix10.Name:
			s10 = r
		case platform.RTX2080Ti.Name:
			gpu2080 = r
		}
	}
	if s10 == nil || gpu2080 == nil {
		t.Fatal("designs missing")
	}
	if s10.Infeasible {
		t.Fatalf("sharing must make the S10 design synthesizable: %s", s10.Design.Infeasible)
	}
	if s10.Speedup <= 0.5 {
		t.Errorf("shared S10 speedup = %.2f, want > 0.5", s10.Speedup)
	}
	if s10.Speedup > gpu2080.Speedup/3 {
		t.Errorf("sharing should cost most of the speedup: S10 %.1fX vs GPU %.1fX",
			s10.Speedup, gpu2080.Speedup)
	}
}

// TestTransformedProgramsReparse: every design's transformed MiniC source
// re-parses and re-executes — the "output implementations are
// human-readable and can be further hand-tuned" property of §III requires
// that generated sources stay valid inputs to the flow itself.
func TestTransformedProgramsReparse(t *testing.T) {
	rows := getFig5(t)
	for _, row := range rows {
		b, err := bench.ByName(row.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range row.Designs {
			printed := minic.Print(r.Design.Prog)
			reparsed, err := minic.Parse(printed)
			if err != nil {
				t.Errorf("%s: transformed source does not re-parse: %v", r.Design.Label(), err)
				continue
			}
			if minic.Print(reparsed) != printed {
				t.Errorf("%s: re-print not stable", r.Design.Label())
			}
			// And it still runs on the reference workload.
			if _, err := interp.Run(reparsed, interp.Config{Entry: b.Entry, Args: b.MakeArgs()}); err != nil {
				t.Errorf("%s: reparsed program fails to execute: %v", r.Design.Label(), err)
			}
		}
	}
}

// TestGeneratedArtifactsWellFormed: every rendered target source is
// non-trivial and structurally balanced (braces/parens) — the cheap
// compilability proxy available without vendor toolchains.
func TestGeneratedArtifactsWellFormed(t *testing.T) {
	rows := getFig5(t)
	checked := 0
	for _, row := range rows {
		for _, r := range row.Designs {
			d := r.Design
			if d.Infeasible != "" {
				if d.Artifact != nil {
					t.Errorf("%s: unsynthesizable design has an artifact", d.Label())
				}
				continue
			}
			if d.Artifact == nil {
				t.Errorf("%s: missing artifact", d.Label())
				continue
			}
			src := d.Artifact.Source
			if d.Artifact.LOC < 20 {
				t.Errorf("%s: suspiciously small artifact (%d LOC)", d.Label(), d.Artifact.LOC)
			}
			for _, pair := range [][2]rune{{'{', '}'}, {'(', ')'}, {'[', ']'}} {
				depth := 0
				for _, c := range src {
					switch c {
					case pair[0]:
						depth++
					case pair[1]:
						depth--
					}
					if depth < 0 {
						break
					}
				}
				if depth != 0 {
					t.Errorf("%s: unbalanced %c%c (depth %d)", d.Label(), pair[0], pair[1], depth)
				}
			}
			// Every artifact must still contain the kernel computation.
			if !strings.Contains(src, d.Kernel) {
				t.Errorf("%s: artifact does not mention kernel %s", d.Label(), d.Kernel)
			}
			checked++
		}
	}
	if checked < 20 { // 5 benchmarks x 5 designs - 2 overmaps = 23
		t.Errorf("only %d artifacts checked", checked)
	}
}
