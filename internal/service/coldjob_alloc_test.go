//go:build !race

// The race detector instruments allocation, so the account below holds
// only without it: tier-1 (go test ./...) runs it, go test -race skips it.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/events"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/telemetry"
)

// Bounds on what one cold job costs the process, each the count measured
// when it was set plus 5%: the whole job (≈ 888 mallocs), its parse at
// submit (≈ 51) and its lowerings (≈ 175). A cold job's program has
// never been seen, so it is parsed at submit, its runs all miss the run
// cache, and each run lowers its program. Before a lowering shared its
// position prefixes by reference and reused its scratch, a cold
// job read ≈ 2 396 mallocs and its lowerings ≈ 978; before the parser
// took its nodes from slabs, ≈ 1 466 and its parse ≈ 608.
const (
	coldJobAllocsBound   = 932
	coldParseAllocsBound = 54
	coldLowerAllocsBound = 184
)

// coldSalt numbers the salted sources; no two jobs of the process share one.
var coldSalt int

// coldSpec is a job of b in mode on a program never seen before: b's
// source with one function no other job's source carries, as the
// benchmark's serve_unique workload salts them.
func coldSpec(b *bench.Benchmark, mode string) JobSpec {
	coldSalt++
	src := fmt.Sprintf("%s\nint cold_salt_%d(int x) { return x + %d; }\n", b.Source, coldSalt, coldSalt)
	return JobSpec{Bench: b.Name, Source: src, Mode: mode}
}

// coldJobSpecs are the ten jobs of one round: the five apps in both
// modes, each on a program never seen before.
func coldJobSpecs() []JobSpec {
	var specs []JobSpec
	for _, mode := range []string{"informed", "uninformed"} {
		for _, b := range bench.All() {
			specs = append(specs, coldSpec(b, mode))
		}
	}
	return specs
}

// coldBodies encodes specs as submitted.
func coldBodies(t *testing.T, specs []JobSpec) [][]byte {
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// TestColdJobAllocations bounds what one cold job allocates in the whole
// process, and logs its account: the parse at submit (decode + validate
// of a source never seen), the flow, and the lowerings inside the flow,
// each counted with testing.AllocsPerRun on jobs never seen before; what
// neither the submit nor the flow owns is the residual row. The lowering
// row is the job's lowerings times what lowering its submitted program
// costs: a run that lowers less one that takes the image from a
// ProgramCache. Write the whole-job profile with
//
//	go test -run TestColdJobAllocations -memprofile m.out -memprofilerate 1 ./internal/service/
//
// and read it with go tool pprof -sample_index=alloc_objects.
func TestColdJobAllocations(t *testing.T) {
	s := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	h := s.Handler()
	// Warm-up: the registry holds finished jobs, and the process's pools
	// hold what a running daemon's do.
	for range 2 {
		for _, body := range coldBodies(t, coldJobSpecs()) {
			serveJob(t, h, body)
		}
	}

	const rounds = 3
	rounded := make([][][]byte, rounds)
	for r := range rounded {
		rounded[r] = coldBodies(t, coldJobSpecs())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, bodies := range rounded {
		for _, body := range bodies {
			serveJob(t, h, body)
		}
	}
	runtime.ReadMemStats(&after)
	jobs := float64(rounds * len(rounded[0]))
	whole := float64(after.Mallocs-before.Mallocs) / jobs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024

	// The layers, each averaged over jobs never seen before: AllocsPerRun
	// calls its function once more than it counts.
	const runs = 4
	var parse, flow, lower float64
	for _, sp := range coldJobSpecs() {
		b, err := bench.ByName(sp.Bench)
		if err != nil {
			t.Fatal(err)
		}
		mode := sp.Mode
		var specs []JobSpec
		for range runs + 1 {
			specs = append(specs, coldSpec(b, mode))
		}
		bodies := coldBodies(t, specs)
		k := 0
		parse += testing.AllocsPerRun(runs, func() {
			var spec JobSpec
			spec, err = decodeJobSpec(bytes.NewReader(bodies[k]))
			if err == nil {
				_, _, err = spec.validate(s.programs)
			}
			k++
		})
		if err != nil {
			t.Fatal(err)
		}

		var jobsOf []*Job
		for range runs + 1 {
			spec := coldSpec(b, mode)
			jb, prog, err := spec.validate(s.programs)
			if err != nil {
				t.Fatal(err)
			}
			jobsOf = append(jobsOf, s.newJob("cold", spec, jb, prog, time.Now()))
		}
		var lowerings int64
		k = 0
		flow += testing.AllocsPerRun(runs, func() {
			rec := telemetry.New()
			rec.SetEventSink(func(events.Event) {})
			_, err = s.runFlow(context.Background(), jobsOf[k], rec)
			lowerings = rec.Snapshot().Counters[interp.CounterBCLowerings]
			k++
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}

		prog := jobsOf[0].prog.ast
		args := b.MakeArgs()
		progs := interp.NewProgramCache()
		fp := minic.Fingerprint(prog)
		cold := interp.Config{Entry: b.Entry, Args: args, MaxSteps: 1}
		cached := cold
		cached.Progs, cached.Fingerprint = progs, fp
		interp.Run(prog, cached)
		one := testing.AllocsPerRun(10, func() { interp.Run(prog, cold) }) -
			testing.AllocsPerRun(10, func() { interp.Run(prog, cached) })
		lower += float64(lowerings) * one
	}
	n := float64(len(rounded[0]))
	parse, flow, lower = parse/n, flow/n, lower/n
	t.Logf("whole job: %.1f mallocs (bound %d), %.1f KB", whole, coldJobAllocsBound, kb)
	t.Logf("  %-22s %7.1f (bound %d)", "decode + validate", parse, coldParseAllocsBound)
	t.Logf("  %-22s %7.1f", "flow", flow)
	t.Logf("  %-22s %7.1f (bound %d)", "  of which lowering", lower, coldLowerAllocsBound)
	t.Logf("  %-22s %7.1f", "residual", whole-parse-flow)
	if whole > coldJobAllocsBound {
		t.Errorf("a cold job costs %.1f mallocs, bound %d", whole, coldJobAllocsBound)
	}
	if parse > coldParseAllocsBound {
		t.Errorf("a cold job's parse at submit costs %.1f mallocs, bound %d", parse, coldParseAllocsBound)
	}
	if lower > coldLowerAllocsBound {
		t.Errorf("a cold job's lowerings cost %.1f mallocs, bound %d", lower, coldLowerAllocsBound)
	}
}
