package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/cluster"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/hls"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/platform"
	"psaflow/internal/store"
	"psaflow/internal/tasks"
)

// Direct layer calls: the traced run times each layer's public function on
// the inputs the workload generated, once per run and outside the rounds,
// so a layer has a number of its own whatever share of a job it is.

// layerProbes makes every direct layer call the workload has a layer for.
// It ends by closing the daemons, because the replay probe reopens the WAL
// they leave behind. lastTraced is where the events probe finds finished
// jobs, lastRound the round whose programs the cluster probes fetch.
func (h *harness) layerProbes(tr *tracer, d *daemons, apps []*bench.Benchmark, flowSource, tmp string, lastTraced *roundStats, lastRound int) (map[string]summary, error) {
	probes, err := engineProbes(tr, apps, h.seed, flowSource)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	probes["runtime.heap_live_mb"] = single(float64(ms.HeapAlloc) / (1 << 20))
	if d == nil {
		return probes, nil
	}
	add := func(more map[string]summary) {
		for k, v := range more {
			probes[k] = v
		}
	}
	if probes["store.append_us"], err = storeAppendProbe(tr, tmp); err != nil {
		return nil, err
	}
	add(eventsProbe(tr, d, lastTraced.samples))
	if h.w.Nodes > 1 {
		jobs, err := h.prepare(lastRound)
		if err != nil {
			return nil, err
		}
		add(clusterProbes(tr, d, jobs))
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	replay, err := storeReplayProbe(tr, d.dirs[0])
	if err != nil {
		return nil, err
	}
	add(replay)
	return probes, nil
}

// timed runs f under a span and returns its duration in the unit whose
// length is per (time.Microsecond gives microseconds).
func timed(tr *tracer, name string, per time.Duration, f func()) float64 {
	sp := tr.begin(name, 0, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(per)
}

// acrossApps calls f for every application iters times and summarizes the
// per-iteration geometric mean over the applications.
func acrossApps(apps []*bench.Benchmark, iters int, f func(b *bench.Benchmark) float64) summary {
	vals := make([]float64, iters)
	for i := range vals {
		per := make([]float64, len(apps))
		for a, b := range apps {
			per[a] = f(b)
		}
		vals[i] = geomean(per)
	}
	return summarize(vals)
}

// engineProbes times minic, interp, hls and flowlang. They need no daemon,
// so every workload reports them.
func engineProbes(tr *tracer, apps []*bench.Benchmark, seed int64, flowSource string) (map[string]summary, error) {
	out := map[string]summary{}
	progs := map[string]*minic.Program{}
	sources := map[string]string{}
	for _, b := range apps {
		sources[b.Name] = salted(b, seed, 0)
		prog, err := minic.Parse(sources[b.Name])
		if err != nil {
			return nil, err
		}
		progs[b.Name] = prog
	}
	out["minic.parse_us"] = acrossApps(apps, 15, func(b *bench.Benchmark) float64 {
		return timed(tr, "minic.Parse", time.Microsecond, func() { _, _ = minic.Parse(sources[b.Name]) })
	})
	out["minic.fingerprint_us"] = acrossApps(apps, 15, func(b *bench.Benchmark) float64 {
		return timed(tr, "minic.Fingerprint", time.Microsecond, func() { minic.Fingerprint(progs[b.Name]) })
	})

	// interp: a run that lowers and quickens from scratch against a run
	// that leases the warmed image from a ProgramCache.
	var runErr error
	run := func(b *bench.Benchmark, cache *interp.ProgramCache) *interp.Result {
		cfg := interp.Config{Entry: b.Entry, Args: b.MakeArgs()}
		if cache != nil {
			cfg.Progs, cfg.Fingerprint = cache, minic.Fingerprint(progs[b.Name])
		}
		res, err := interp.Run(progs[b.Name], cfg)
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("interp.Run %s: %w", b.Name, err)
		}
		return res
	}
	warm := interp.NewProgramCache()
	for _, b := range apps {
		run(b, warm)
	}
	out["interp.cold_run_ms"] = acrossApps(apps, 3, func(b *bench.Benchmark) float64 {
		return timed(tr, "interp.Run cold", time.Millisecond, func() { run(b, nil) })
	})
	var mops, allocs []float64
	out["interp.leased_run_ms"] = acrossApps(apps, 3, func(b *bench.Benchmark) float64 {
		var res *interp.Result
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ms := timed(tr, "interp.Run leased", time.Millisecond, func() { res = run(b, warm) })
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		if res != nil {
			mops = append(mops, float64(res.Steps)/1e6/(ms/1000))
		}
		return ms
	})
	if runErr != nil {
		return nil, runErr
	}
	out["interp.lower_ms"] = single(out["interp.cold_run_ms"].Median - out["interp.leased_run_ms"].Median)
	out["interp.mops_per_s"] = single(geomean(mops))
	out["interp.allocs_per_run"] = single(mean(allocs))

	// hls: the estimate the unroll DSE repeats, on the kernel the flow
	// extracts from adpredictor (the one application an FPGA wins).
	adp, err := bench.ByName("adpredictor")
	if err != nil {
		return nil, err
	}
	results, err := experiments.RunBenchmarkEnv(context.Background(), adp, progs[adp.Name],
		tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy},
		experiments.JobEnv{}, nil, nil, core.NewRunCache())
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		d := r.Design
		if d.Device != platform.Stratix10.Name || d.HLSReport == nil {
			continue
		}
		kernel := d.Prog.Func(d.Kernel)
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = timed(tr, "hls.Estimate", time.Microsecond, func() {
				hls.Estimate(d.Prog, kernel, platform.Stratix10, d.Report.PipelinedTrips)
			})
		}
		out["hls.estimate_us"] = summarize(vals)
	}

	var compileErr error
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = timed(tr, "flowlang.CompileSource", time.Microsecond, func() {
			_, compileErr = flowlang.CompileSource(flowSource, flowlang.Options{Mode: tasks.Uninformed})
		})
	}
	if compileErr != nil {
		return nil, compileErr
	}
	out["flowlang.compile_us"] = summarize(vals)
	return out, nil
}

// storeAppendProbe opens a fresh WAL and appends records one after
// another, each waiting for its own fsync, as a submit does.
func storeAppendProbe(tr *tracer, dir string) (summary, error) {
	st, err := store.Open(filepath.Join(dir, "append-probe"), store.Options{})
	if err != nil {
		return summary{}, err
	}
	data, _ := json.Marshal(map[string]string{"source": string(make([]byte, 4096))})
	vals := make([]float64, 40)
	for i := range vals {
		rec := store.Record{Op: store.OpSubmit, ID: fmt.Sprintf("probe-%d", i), Data: data}
		vals[i] = timed(tr, "store.Append", time.Microsecond, func() { err = st.Append(rec) })
		if err != nil {
			st.Close()
			return summary{}, err
		}
	}
	return summarize(vals), st.Close()
}

// storeReplayProbe reopens the WAL a daemon left behind: the read use of
// what the rounds appended, and what a restart pays.
func storeReplayProbe(tr *tracer, dataDir string) (map[string]summary, error) {
	var st *store.Store
	var err error
	ms := timed(tr, "store.Open replay", time.Millisecond, func() {
		st, err = store.Open(filepath.Join(dataDir, "store"), store.Options{})
	})
	if err != nil {
		return nil, err
	}
	replayed := float64(st.Stats().Replayed)
	return map[string]summary{
		"store.replay_ms":            single(ms),
		"store.replay_records_per_s": single(replayed / (ms / 1000)),
	}, st.Close()
}

// stalledAfter is how long an event stream of a finished job may take
// before it counts as stalled (replaying a ring takes milliseconds).
const stalledAfter = time.Second

// eventsProbe reads /events for up to 50 finished jobs, all at once and
// each for at most stalledAfter. It exists to make the late-subscriber
// heartbeat stall visible: the benchmark itself never waits on /events.
func eventsProbe(tr *tracer, d *daemons, finished []sample) map[string]summary {
	if len(finished) > 50 {
		finished = finished[len(finished)-50:]
	}
	sp := tr.begin("events probe", 0, 0)
	defer tr.end(sp)
	ms := make([]float64, len(finished))
	var wg sync.WaitGroup
	for i, s := range finished {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), stalledAfter)
			defer cancel()
			t0 := time.Now()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = http.DefaultClient.Do(req); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			ms[i] = msSince(t0)
		}(i, d.listeners[s.job.Node].URL+"/v1/jobs/"+s.id+"/events")
	}
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()
	stalled, slowest := 0, 0.0
	for _, v := range ms {
		if v >= float64(stalledAfter/time.Millisecond) {
			stalled++
		}
		slowest = max(slowest, v)
	}
	return map[string]summary{
		"events.replay_ms_p50":   single(median(ms)),
		"events.replay_ms_max":   single(slowest),
		"events.stalled_streams": single(float64(stalled)),
	}
}

// clusterProbes times a run-cache fetch that has to cross to the other
// node, and placement itself.
func clusterProbes(tr *tracer, d *daemons, lastRound []prepared) map[string]summary {
	out := map[string]summary{}
	ring := cluster.NewRing(nodeIDs)
	var fetches []float64
	for _, p := range lastRound {
		if p.Repeat {
			continue
		}
		prog, err := minic.Parse(p.source)
		if err != nil {
			continue
		}
		// The key of the hotspot analysis' profiled run of the program as
		// submitted: every flow computes it first.
		key := core.RunKey{Fingerprint: minic.Fingerprint(prog), Workload: p.bench.Name, Entry: p.bench.Entry, Watch: p.bench.Entry}
		owner := ring.Owner(cluster.RunKeyHash(cluster.RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)))
		for i, node := range d.nodes {
			if nodeIDs[i] == owner {
				continue
			}
			hit := false
			ms := timed(tr, "cluster.FetchRun", time.Millisecond, func() { _, hit = node.FetchRun(key) })
			if hit {
				fetches = append(fetches, ms)
			}
		}
	}
	out["cluster.fetch_run_ms"] = summarize(fetches)

	vals := make([]float64, 20)
	for i := range vals {
		const keys = 1000
		ns := timed(tr, "cluster.OwnerForJob", time.Nanosecond, func() {
			for k := 0; k < keys; k++ {
				d.nodes[0].OwnerForJob("tenant-0", uint64(i*keys+k))
			}
		})
		vals[i] = ns / keys
	}
	out["cluster.ring_owner_ns"] = summarize(vals)
	return out
}
