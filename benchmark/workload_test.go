package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
)

// None of these tests runs a workload: they check the generator, the
// golden outcomes and the metric tables, in well under a second.

func classMix(js []job) map[string]int {
	mix := map[string]int{}
	for _, j := range js {
		mix[j.class()]++
	}
	return mix
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for round := 0; round < 3; round++ {
			a, b := w.jobs(7, round), w.jobs(7, round)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s round %d: same seed, different job lists", w.Name, round)
			}
			other := w.jobs(8, round)
			if reflect.DeepEqual(a, other) {
				t.Errorf("%s round %d: seeds 7 and 8 give the same job order", w.Name, round)
			}
			if !reflect.DeepEqual(classMix(a), classMix(other)) {
				t.Errorf("%s round %d: class mix depends on the seed", w.Name, round)
			}
			if !reflect.DeepEqual(classMix(a), classMix(w.jobs(7, 0))) {
				t.Errorf("%s round %d: class mix differs from round 0", w.Name, round)
			}
		}
	}
}

func TestJobsPerRound(t *testing.T) {
	want := map[string]int{"flow_cold": 20, "serve_unique": 30, "serve_hot": 400, "cluster_hop": 120}
	for _, w := range workloads {
		if got := len(w.jobs(1, 1)); got != want[w.Name] {
			t.Errorf("%s: %d jobs per round, want %d", w.Name, got, want[w.Name])
		}
	}
}

func TestSaltedPrograms(t *testing.T) {
	for _, b := range bench.All() {
		base := minic.Fingerprint(b.Parse())
		seen := map[uint64]string{}
		for _, v := range []struct {
			seed int64
			k    int
		}{{1, 0}, {1, 1}, {2, 0}} {
			prog, err := minic.Parse(salted(b, v.seed, v.k))
			if err != nil {
				t.Fatalf("%s seed %d salt %d does not parse: %v", b.Name, v.seed, v.k, err)
			}
			if prog.Func(b.Entry) == nil {
				t.Errorf("%s: salted program lost its entry %s", b.Name, b.Entry)
			}
			fp := minic.Fingerprint(prog)
			id := fmt.Sprintf("seed %d salt %d", v.seed, v.k)
			if fp == base {
				t.Errorf("%s %s: fingerprint equals the bundled program's", b.Name, id)
			}
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s: %s and %s share a fingerprint", b.Name, prev, id)
			}
			seen[fp] = id
		}
	}
}

// serve_unique and cluster_hop may never submit a program twice across
// rounds, the warm-up included; flow_cold and serve_hot reuse theirs.
func TestFreshProgramsStayFresh(t *testing.T) {
	for _, name := range []string{"serve_unique", "cluster_hop"} {
		w := workloadByName(name)
		seen := map[string]bool{}
		for round := 0; round < w.Warmup+w.Rounds; round++ {
			for _, j := range w.jobs(3, round) {
				if j.Repeat {
					continue
				}
				key := fmt.Sprintf("%s/%d", j.App, j.Salt)
				if seen[key] {
					t.Fatalf("%s round %d submits %s as new a second time", name, round, key)
				}
				seen[key] = true
			}
		}
	}
}

func TestServeHotMix(t *testing.T) {
	js := workloadByName("serve_hot").jobs(5, 1)
	mix := classMix(js)
	if len(mix) != 20 {
		t.Fatalf("%d classes, want 5 apps x 2 modes x {built-in, flow}", len(mix))
	}
	programs := map[string]map[string]bool{}
	for _, j := range js {
		want := 32
		if j.Flow != "" {
			want = 8
		}
		if mix[j.class()] != want {
			t.Errorf("class %s has %d jobs, want %d", j.class(), mix[j.class()], want)
		}
		p := fmt.Sprintf("%s/%d", j.App, j.Salt)
		if programs[p] == nil {
			programs[p] = map[string]bool{}
		}
		programs[p][j.Mode] = true
	}
	if len(programs) != 20 {
		t.Errorf("%d programs in the pool, want 20", len(programs))
	}
	for p, m := range programs {
		if len(m) != 2 {
			t.Errorf("program %s only ever runs %v", p, m)
		}
	}
}

func TestClusterHopOrder(t *testing.T) {
	js := workloadByName("cluster_hop").jobs(9, 2)
	submissions := map[string]int{}
	for i, j := range js {
		if j.Node != i%2 {
			t.Fatalf("job %d goes to node %d: the client must alternate", i, j.Node)
		}
		p := fmt.Sprintf("%s/%d", j.App, j.Salt)
		n := submissions[p]
		if want := fmt.Sprintf("tenant-%d", n); j.Tenant != want {
			t.Errorf("submission %d of %s is from %s, want %s", n, p, j.Tenant, want)
		}
		if j.Repeat != (n > 0) {
			t.Errorf("submission %d of %s has Repeat=%v", n, p, j.Repeat)
		}
		submissions[p]++
	}
	if len(submissions) != 30 {
		t.Errorf("%d programs, want 30", len(submissions))
	}
	for p, n := range submissions {
		if n != 4 {
			t.Errorf("%s submitted %d times, want once per tenant", p, n)
		}
	}
}

// fig5 is the measured row of EXPERIMENTS.md's Fig. 5 table per
// application: OMP, GTX 1080 Ti, RTX 2080 Ti, A10, S10.
var fig5 = map[string][5]string{
	"nbody":       {"29X", "340X", "750X", "1.7X", "4.3X"},
	"kmeans":      {"29X", "22X", "22X", "7.0X", "24X"},
	"adpredictor": {"28X", "18X", "23X", "8.5X", "31X"},
	"rushlarsen":  {"29X", "48X", "80X", "overmap", "overmap"},
	"bezier":      {"29X", "60X", "59X", "0.9X", "2.2X"},
}

func fig5Cell(d design) string {
	switch {
	case d.Infeasible != "":
		return "overmap"
	case d.Speedup < 10:
		return fmt.Sprintf("%.1fX", d.Speedup)
	}
	return fmt.Sprintf("%.0fX", d.Speedup)
}

// Every job is verified against golden.json, so golden.json itself has to
// be right: it must say what EXPERIMENTS.md's Fig. 5 table says.
func TestGoldenMatchesFig5(t *testing.T) {
	columns := []string{platform.EPYC7543.Name, platform.GTX1080Ti.Name, platform.RTX2080Ti.Name, platform.Arria10.Name, platform.Stratix10.Name}
	for _, b := range bench.All() {
		un, ok := golden[b.Name+"/uninformed"]
		if !ok || len(un.Designs) != 5 {
			t.Fatalf("%s/uninformed: %d golden designs, want 5", b.Name, len(un.Designs))
		}
		for col, device := range columns {
			found := false
			for _, d := range un.Designs {
				if d.Device == device {
					found = true
					if got := fig5Cell(d); got != fig5[b.Name][col] {
						t.Errorf("%s on %s: golden says %s, EXPERIMENTS.md says %s", b.Name, device, got, fig5[b.Name][col])
					}
				}
			}
			if !found {
				t.Errorf("%s: no golden design for %s", b.Name, device)
			}
		}
		inf := golden[b.Name+"/informed"]
		if inf.AutoTarget != b.ExpectTarget || un.AutoTarget != b.ExpectTarget {
			t.Errorf("%s: golden auto_target informed=%q uninformed=%q, the paper selects %q",
				b.Name, inf.AutoTarget, un.AutoTarget, b.ExpectTarget)
		}
	}
}

func TestVerifyRejectsWrongOutcomes(t *testing.T) {
	b, err := bench.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	j := job{App: "nbody", Mode: "informed"}
	good := golden["nbody/informed"]
	if err := verify(j, b, good); err != nil {
		t.Fatalf("golden outcome rejected: %v", err)
	}
	wrongTarget := good
	wrongTarget.AutoTarget = "cpu"
	if verify(j, b, wrongTarget) == nil {
		t.Error("a wrong auto_target passed")
	}
	fewer := good
	fewer.Designs = good.Designs[:len(good.Designs)-1]
	if verify(j, b, fewer) == nil {
		t.Error("a missing design passed")
	}
	slower := good
	slower.Designs = append([]design(nil), good.Designs...)
	slower.Designs[0].Speedup *= 1.001
	if verify(j, b, slower) == nil {
		t.Error("a changed speedup passed")
	}
	retuned := good
	retuned.Designs = append([]design(nil), good.Designs...)
	retuned.Designs[0].Blocksize++
	if verify(j, b, retuned) == nil {
		t.Error("a changed blocksize passed")
	}
}

// BENCHMARK.json and the tables the program reports from must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	names := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[def.Name] {
			t.Errorf("metric %s is listed twice", def.Name)
		}
		names[def.Name] = true
	}
	if !names["setup_s"] {
		t.Error("setup_s is missing from end_to_end")
	}
}
