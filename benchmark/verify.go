package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"psaflow/internal/bench"
	"psaflow/internal/experiments"
	"psaflow/internal/interp"
)

// design is what a job's result says about one generated design: every
// field of service.DesignSummary except loc, ref_loc and trace, which a
// salted source legitimately changes.
type design struct {
	Label      string  `json:"label"`
	Target     string  `json:"target"`
	Device     string  `json:"device,omitempty"`
	Infeasible string  `json:"infeasible,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	KernelS    float64 `json:"kernel_s,omitempty"`
	TransferS  float64 `json:"transfer_s,omitempty"`
	OverheadS  float64 `json:"overhead_s,omitempty"`
	Note       string  `json:"note,omitempty"`
	NumThreads int     `json:"num_threads,omitempty"`
	Blocksize  int     `json:"blocksize,omitempty"`
	Unroll     int     `json:"unroll,omitempty"`
	Pinned     bool    `json:"pinned,omitempty"`
	ZeroCopy   bool    `json:"zero_copy,omitempty"`
	AddedLOC   int     `json:"added_loc,omitempty"`
}

// outcome is the part of a result record the benchmark verifies.
type outcome struct {
	AutoTarget string   `json:"auto_target,omitempty"`
	Designs    []design `json:"designs"`
}

//go:embed golden.json
var goldenJSON []byte

// golden maps "app/mode" to the outcome of the unsalted bundled program;
// workload_test.go pins it to EXPERIMENTS.md's Fig. 5 table.
var golden = func() map[string]outcome {
	var g map[string]outcome
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g
}()

// engineOutcome shapes the engine's designs the way the daemon's
// buildResult shapes them for a result record.
func engineOutcome(results []experiments.DesignResult) outcome {
	var out outcome
	best := 0.0
	for _, r := range results {
		d := r.Design
		ds := design{
			Label: d.Label(), Target: d.Target.String(), Device: d.Device, Infeasible: d.Infeasible,
			NumThreads: d.NumThreads, Blocksize: d.Blocksize, Unroll: d.UnrollFactor,
			Pinned: d.Pinned, ZeroCopy: d.ZeroCopy,
		}
		if !r.Infeasible {
			ds.Speedup = r.Speedup
			ds.KernelS = r.Breakdown.KernelTime
			ds.TransferS = r.Breakdown.TransferTime
			ds.OverheadS = r.Breakdown.Overhead
			ds.Note = r.Breakdown.Note
			if r.Speedup > best {
				best, out.AutoTarget = r.Speedup, d.Target.String()
			}
		}
		if d.Artifact != nil {
			ds.AddedLOC = d.Artifact.AddedLOC
		}
		out.Designs = append(out.Designs, ds)
	}
	return out
}

// verify checks one job's outcome: the designs must be the golden ones and
// an informed job must have selected the target the paper reports.
func verify(j job, b *bench.Benchmark, got outcome) error {
	want, ok := golden[j.App+"/"+j.Mode]
	if !ok {
		return fmt.Errorf("no golden outcome for %s/%s", j.App, j.Mode)
	}
	if j.Mode == "informed" && got.AutoTarget != b.ExpectTarget {
		return fmt.Errorf("%s informed selected %q, the paper selects %q", j.App, got.AutoTarget, b.ExpectTarget)
	}
	if got.AutoTarget != want.AutoTarget {
		return fmt.Errorf("%s/%s auto_target %q, golden %q", j.App, j.Mode, got.AutoTarget, want.AutoTarget)
	}
	if len(got.Designs) != len(want.Designs) {
		return fmt.Errorf("%s/%s has %d designs, golden %d", j.App, j.Mode, len(got.Designs), len(want.Designs))
	}
	for i := range want.Designs {
		if !sameDesign(got.Designs[i], want.Designs[i]) {
			return fmt.Errorf("%s/%s design %d differs from golden:\n got  %+v\n want %+v",
				j.App, j.Mode, i, got.Designs[i], want.Designs[i])
		}
	}
	return nil
}

// sameDesign compares every field; the modelled times tolerate the last
// bits, which fused multiply-add moves between architectures.
func sameDesign(a, b design) bool {
	floats := [][2]float64{
		{a.Speedup, b.Speedup}, {a.KernelS, b.KernelS},
		{a.TransferS, b.TransferS}, {a.OverheadS, b.OverheadS},
	}
	for _, f := range floats {
		if math.Abs(f[0]-f[1]) > 1e-9*math.Max(math.Abs(f[0]), math.Abs(f[1])) {
			return false
		}
	}
	a.Speedup, a.KernelS, a.TransferS, a.OverheadS = 0, 0, 0, 0
	b.Speedup, b.KernelS, b.TransferS, b.OverheadS = 0, 0, 0, 0
	return a == b
}

// checkReference runs every application under the tree-walking reference
// interpreter and under the default engine and requires the same return
// value, profile and step count: the engine being timed must be the one
// the paper's numbers were checked with.
func checkReference(apps []*bench.Benchmark) error {
	for _, b := range apps {
		prog := b.Parse()
		fast, err := interp.Run(prog, interp.Config{Entry: b.Entry, Args: b.MakeArgs()})
		if err != nil {
			return fmt.Errorf("%s: default engine: %w", b.Name, err)
		}
		ref, err := interp.Run(prog, interp.Config{Entry: b.Entry, Args: b.MakeArgs(), TreeWalk: true})
		if err != nil {
			return fmt.Errorf("%s: tree-walk reference: %w", b.Name, err)
		}
		// Bindings point at each run's own argument buffers; what has to
		// agree about them is the aliasing they show.
		fp, rp := *fast.Prof, *ref.Prof
		sameAliases := len(fp.Bindings) == len(rp.Bindings) && reflect.DeepEqual(fp.AliasPairs(), rp.AliasPairs())
		fp.Bindings, rp.Bindings = nil, nil
		if fast.Ret != ref.Ret || fast.Steps != ref.Steps || !sameAliases || !reflect.DeepEqual(fp, rp) {
			return fmt.Errorf("%s: default engine and tree-walk reference disagree (steps %d vs %d)", b.Name, fast.Steps, ref.Steps)
		}
	}
	return nil
}
