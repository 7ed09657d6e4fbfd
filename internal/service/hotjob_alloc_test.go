//go:build !race

// The race detector instruments allocation, so the account below holds
// only without it: tier-1 (go test ./...) runs it, go test -race skips it.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/events"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// hotJobAllocsBound is the most mallocs one hot job may cost the process:
// the count measured when the bound was set (≈ 694 a job; ≈ 820 while
// dependence analysis allocated its walk and rendered every scalar
// dependence's text, ≈ 838 while the engine also logged through
// Context.Logf and the daemon formatted job IDs and started details with
// fmt; 1 056 before design events kept their operands) plus 5%. A hot job
// is a kept program resubmitted to a warm daemon, as the benchmark's
// serve_hot workload submits it, with the HTTP client taken out.
const hotJobAllocsBound = 729

// hotJobSpecs are the ten jobs of one round: the five apps in both modes,
// each carrying its program's source as a resubmitting client does.
func hotJobSpecs() []JobSpec {
	var specs []JobSpec
	for _, mode := range []string{"informed", "uninformed"} {
		for _, b := range bench.All() {
			specs = append(specs, JobSpec{Bench: b.Name, Source: b.Source, Mode: mode})
		}
	}
	return specs
}

// TestHotJobAllocations bounds what one hot job allocates in the whole
// process — handler, queue, worker, flow, event frames, result, WAL — and
// logs where it goes: each layer that runs alone is counted with
// testing.AllocsPerRun on the same jobs, and what no layer owns is the
// residual row. Write the whole-job profile with
//
//	go test -run TestHotJobAllocations -memprofile m.out -memprofilerate 1 ./internal/service/
//
// and read it with go tool pprof -sample_index=alloc_objects.
func TestHotJobAllocations(t *testing.T) {
	s := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain() })
	h := s.Handler()
	specs := hotJobSpecs()
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	// Warm-up: every program is kept (a second sighting) and its runs are
	// cached, and the registry holds finished jobs as it does when warm.
	for range 3 {
		for _, body := range bodies {
			serveJob(t, h, body)
		}
	}

	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, body := range bodies {
			serveJob(t, h, body)
		}
	}
	runtime.ReadMemStats(&after)
	jobs := float64(rounds * len(bodies))
	whole := float64(after.Mallocs-before.Mallocs) / jobs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024

	// The layers, each averaged over the same ten jobs.
	var decode, flow, frames, result, wal float64
	walStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer walStore.Close()
	for i, body := range bodies {
		var spec JobSpec
		decode += testing.AllocsPerRun(20, func() {
			spec, err = decodeJobSpec(bytes.NewReader(body))
			if err == nil {
				_, _, err = spec.validate(s.programs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		b, prog, err := spec.validate(s.programs)
		if err != nil {
			t.Fatal(err)
		}
		job := s.newJob("hot", spec, b, prog, time.Now())
		out := &outcome{state: StateDone}
		flow += testing.AllocsPerRun(10, func() {
			// A sink that publishes nothing: the flow row pays for what
			// the engine does for a sink, and the frames row for the frames.
			rec := telemetry.New()
			rec.SetEventSink(func(events.Event) {})
			out.results, err = s.runFlow(context.Background(), job, rec)
			out.rep = rec.Snapshot()
		})
		if err != nil {
			t.Fatalf("%s: %v", specs[i].Bench, err)
		}

		// The events the job's sink would publish, kept.
		var evs []events.Event
		var mu sync.Mutex
		rec := telemetry.New()
		rec.SetEventSink(func(e events.Event) {
			mu.Lock()
			evs = append(evs, e)
			mu.Unlock()
		})
		if _, err := s.runFlow(context.Background(), job, rec); err != nil {
			t.Fatal(err)
		}
		frames += testing.AllocsPerRun(10, func() {
			br := events.NewBroker("hot", 0, 0)
			for _, e := range evs {
				br.Publish(e)
			}
		})

		var doc []byte
		result += testing.AllocsPerRun(10, func() {
			doc, err = json.Marshal(buildResult(job.Status(), out))
		})
		if err != nil {
			t.Fatal(err)
		}
		wal += testing.AllocsPerRun(10, func() {
			err = walStore.Append(store.Record{Op: store.OpResult, ID: "hot", State: string(StateDone), Data: doc})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	n := float64(len(bodies))
	rows := []struct {
		name string
		v    float64
	}{
		{"decode + validate", decode / n},
		{"flow", flow / n},
		{"result build + encode", result / n},
		{"one job's frames", frames / n},
		{"WAL append", wal / n},
	}
	residual := whole
	t.Logf("whole job: %.1f mallocs (bound %d), %.1f KB", whole, hotJobAllocsBound, kb)
	for _, r := range rows {
		t.Logf("  %-22s %7.1f", r.name, r.v)
		residual -= r.v
	}
	t.Logf("  %-22s %7.1f", "residual", residual)
	if whole > hotJobAllocsBound {
		t.Errorf("a hot job costs %.1f mallocs, bound %d", whole, hotJobAllocsBound)
	}
}
