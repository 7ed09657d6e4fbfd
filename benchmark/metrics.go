package main

import (
	"strings"
	"time"

	"psaflow/internal/telemetry"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// tables; workload_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd is what a user of psaflow sees. Failures are not in the table:
// a metric here may never read 0, so failed jobs are reported as counts
// (attempted, failed) and printed as failed_pct.
//
// The clock metrics are reported at reference speed (calib.go) and still
// carry the widest bound the driver allows: the 2-core shared box the
// benchmark was sized on changes speed by a third for minutes at a time,
// and the calibration takes out most of that, not all (README,
// Calibration). The allocation counts repeat within 0.4% and carry the
// bounds the issue asked for.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_geomean", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"allocs_per_job", "count", "lower", 0.01},
	{"alloc_kb_per_job", "KB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one table for all workloads; a layer that does no work on a
// workload (service, store, events and cluster on flow_cold; cluster
// anywhere but cluster_hop) is left out of that workload's report and
// reads 0 in its result line.
var perLayer = []metricDef{
	{Name: "minic.parse_us", Unit: "us", Better: "lower"},
	{Name: "minic.fingerprint_us", Unit: "us", Better: "lower"},

	{Name: "interp.cold_run_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.leased_run_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.mops_per_s", Unit: "Mops/s", Better: "higher"},
	{Name: "interp.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "interp.runs_per_job", Unit: "count", Better: "lower"},
	{Name: "interp.bytecode_fallbacks", Unit: "count", Better: "lower"},

	{Name: "tasks.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.pointer_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.hotspot_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.unroll_dse_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.render_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.other_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.dse_iterations_per_job", Unit: "count", Better: "lower"},
	{Name: "hls.estimate_us", Unit: "us", Better: "lower"},
	{Name: "hls.partial_compiles_per_job", Unit: "count", Better: "lower"},

	{Name: "core.flow_ms", Unit: "ms", Better: "lower"},
	{Name: "core.flow_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "core.flow_allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "core.runcache_hit_pct", Unit: "%", Better: "higher"},
	{Name: "core.runcache_misses_per_job", Unit: "count", Better: "lower"},
	{Name: "core.designs_forked_per_job", Unit: "count", Better: "lower"},

	{Name: "flowlang.compile_us", Unit: "us", Better: "lower"},
	{Name: "flowlang.compiles_per_job", Unit: "count", Better: "lower"},

	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms", Unit: "ms", Better: "lower"},
	{Name: "service.wait_self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_kb", Unit: "KB", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower"},

	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.appends_per_job", Unit: "count", Better: "lower"},
	{Name: "store.fsyncs_per_job", Unit: "count", Better: "lower"},
	{Name: "store.wal_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "store.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replay_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "events.published_per_job", Unit: "count", Better: "lower"},
	{Name: "events.replay_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "events.replay_ms_max", Unit: "ms", Better: "lower"},
	{Name: "events.stalled_streams", Unit: "count", Better: "lower"},

	{Name: "cluster.forwarded_pct", Unit: "%", Better: "lower"},
	{Name: "cluster.proxied_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.peer_hit_pct", Unit: "%", Better: "higher"},
	{Name: "cluster.runs_computed_per_unique", Unit: "count", Better: "lower"},
	{Name: "cluster.fetch_run_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},

	{Name: "runtime.machine_speed", Unit: "x", Better: "higher"},
	{Name: "runtime.gc_cycles_per_100_jobs", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "client.job_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "client.job_ms_max", Unit: "ms", Better: "lower"},
	{Name: "client.round_spread_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// overRounds computes a value per round and summarizes it: every reported
// number is a median over rounds.
func overRounds(rounds []*roundStats, f func(*roundStats) float64) summary {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return summarize(vals)
}

func single(v float64) summary { return summary{N: 1, Q1: v, Median: v, Q3: v} }

// jobsPerS is the round's rate as measured.
func (r *roundStats) jobsPerS() float64 { return r.jobs() / r.wall.Seconds() }

// machineSpeed is how fast the machine ran while the calibration samples
// were taken, as a share of the reference machine's speed: measured time x
// speed = time at reference speed.
func machineSpeed(calMS []float64) float64 {
	return float64(calRef) / float64(time.Millisecond) / median(calMS)
}

func (r *roundStats) speed() float64 { return machineSpeed(r.cal) }

// refJobsPerS is the round's rate at reference speed.
func (r *roundStats) refJobsPerS() float64 { return r.jobsPerS() / r.speed() }

// speedOver is the machine's speed over several rounds taken together.
func speedOver(rounds []*roundStats) float64 {
	var cal []float64
	for _, r := range rounds {
		cal = append(cal, r.cal...)
	}
	return machineSpeed(cal)
}

func (r *roundStats) latencies() (classes []string, ms []float64) {
	for _, s := range r.samples {
		classes = append(classes, s.job.class())
		ms = append(ms, s.ms)
	}
	return classes, ms
}

// endToEndMetrics reports the clock metrics at reference speed; setupS
// comes in scaled already. Counts and memory are as measured.
func endToEndMetrics(rounds []*roundStats, setupS, peakRSSMB float64) map[string]summary {
	return map[string]summary{
		"jobs_per_s": overRounds(rounds, (*roundStats).refJobsPerS),
		"job_ms_p50": overRounds(rounds, func(r *roundStats) float64 {
			_, ms := r.latencies()
			return median(ms) * r.speed()
		}),
		"job_ms_geomean": overRounds(rounds, func(r *roundStats) float64 {
			return classGeomean(r.latencies()) * r.speed()
		}),
		"cpu_ms_per_job": overRounds(rounds, func(r *roundStats) float64 {
			return float64(r.cpu.Microseconds()) / 1000 / r.jobs() * r.speed()
		}),
		"allocs_per_job":   overRounds(rounds, func(r *roundStats) float64 { return float64(r.mallocs) / r.jobs() }),
		"alloc_kb_per_job": overRounds(rounds, func(r *roundStats) float64 { return r.allocKB / r.jobs() }),
		"peak_rss_mb":      single(peakRSSMB),
		"setup_s":          single(setupS),
	}
}

// taskMetric maps a flow task's span name to the metric its time is
// reported under.
func taskMetric(name string) string {
	switch {
	case name == "Verify Transformed Kernel":
		return "tasks.verify_ms"
	case name == "Pointer Analysis":
		return "tasks.pointer_analysis_ms"
	case name == "Identify Hotspot Loops":
		return "tasks.hotspot_ms"
	case strings.HasSuffix(name, "Unroll Until Overmap DSE"):
		return "tasks.unroll_dse_ms"
	case name == "Render Design Source":
		return "tasks.render_ms"
	}
	return "tasks.other_ms"
}

// criticalTaskMS is the task time on the critical path under a span:
// children of a flow or a path run one after another, the paths of a
// branch point run side by side and the slowest sets the branch's time.
func criticalTaskMS(s telemetry.SpanSnapshot) float64 {
	switch s.Kind {
	case telemetry.KindTask:
		return s.Millis
	case telemetry.KindBranch:
		var slowest *telemetry.SpanSnapshot
		for i := range s.Children {
			if slowest == nil || s.Children[i].Millis > slowest.Millis {
				slowest = &s.Children[i]
			}
		}
		if slowest == nil {
			return 0
		}
		return criticalTaskMS(*slowest)
	}
	sum := 0.0
	for _, c := range s.Children {
		sum += criticalTaskMS(c)
	}
	return sum
}

// jobLayers sums, over the jobs of one round, what their telemetry blocks
// say about the flow engine and the layers below it. Times are
// milliseconds, the rest counts, all per job.
func jobLayers(r *roundStats) map[string]float64 {
	sum := map[string]float64{}
	for _, s := range r.samples {
		if s.telemetry == nil {
			continue
		}
		for _, root := range s.telemetry.Spans {
			if root.Kind != telemetry.KindFlow {
				continue
			}
			sum["core.flow_ms"] += root.Millis
			sum["core.flow_overhead_ms"] += root.Millis - criticalTaskMS(root)
		}
		for _, st := range s.telemetry.Stats {
			if st.Kind == telemetry.KindTask {
				sum[taskMetric(st.Name)] += st.Millis
			}
		}
		for name, v := range s.telemetry.Counters {
			switch {
			case name == telemetry.CounterInterpRuns:
				sum["interp.runs_per_job"] += float64(v)
			case name == "interp.bytecode.fallbacks":
				sum["interp.bytecode_fallbacks"] += float64(v)
			case strings.HasPrefix(name, "dse.") && strings.HasSuffix(name, ".iterations"):
				sum["tasks.dse_iterations_per_job"] += float64(v)
			case name == telemetry.CounterHLSPartialCompiles:
				sum["hls.partial_compiles_per_job"] += float64(v)
			case name == telemetry.CounterRunCacheHits:
				sum["runcache.hits"] += float64(v)
			case name == telemetry.CounterRunCacheMisses:
				sum["core.runcache_misses_per_job"] += float64(v)
			case name == telemetry.CounterDesignsForked:
				sum["core.designs_forked_per_job"] += float64(v)
			case name == telemetry.CounterFlowCompiles:
				sum["flowlang.compiles_per_job"] += float64(v)
			}
		}
	}
	for k := range sum {
		if k != "interp.bytecode_fallbacks" {
			sum[k] /= r.jobs()
		}
	}
	return sum
}

// layerMetrics turns the traced rounds into the per-layer table. probes
// holds the direct layer calls, made once per run.
func layerMetrics(w *workload, untraced, traced []*roundStats, probes map[string]summary) map[string]summary {
	out := map[string]summary{}
	for k, v := range probes {
		out[k] = v
	}
	perJob := make([]map[string]float64, len(traced))
	for i, r := range traced {
		perJob[i] = jobLayers(r)
	}
	fromJobs := func(name string) {
		vals := make([]float64, len(traced))
		for i := range traced {
			vals[i] = perJob[i][name]
		}
		out[name] = summarize(vals)
	}
	for _, name := range []string{
		"interp.runs_per_job", "interp.bytecode_fallbacks",
		"tasks.verify_ms", "tasks.pointer_analysis_ms", "tasks.hotspot_ms", "tasks.unroll_dse_ms",
		"tasks.render_ms", "tasks.other_ms", "tasks.dse_iterations_per_job", "hls.partial_compiles_per_job",
		"core.flow_ms", "core.flow_overhead_ms", "core.runcache_misses_per_job", "core.designs_forked_per_job",
		"flowlang.compiles_per_job",
	} {
		fromJobs(name)
	}
	hitPct := make([]float64, len(traced))
	flowAllocs := make([]float64, len(traced))
	for i, r := range traced {
		hits, misses := perJob[i]["runcache.hits"], perJob[i]["core.runcache_misses_per_job"]
		if hits+misses > 0 {
			hitPct[i] = 100 * hits / (hits + misses)
		}
		flowAllocs[i] = float64(r.mallocs)/r.jobs() - out["interp.allocs_per_run"].Median*perJob[i]["interp.runs_per_job"]
	}
	out["core.runcache_hit_pct"] = summarize(hitPct)
	out["core.flow_allocs_per_job"] = summarize(flowAllocs)

	if w.Nodes > 0 {
		client := func(f func(s *sample) float64) func(*roundStats) float64 {
			return func(r *roundStats) float64 {
				vals := make([]float64, len(r.samples))
				for i := range r.samples {
					vals[i] = f(&r.samples[i])
				}
				return median(vals)
			}
		}
		out["service.submit_ms"] = overRounds(traced, client(func(s *sample) float64 { return s.submitMS }))
		out["service.queue_wait_ms"] = overRounds(traced, client(func(s *sample) float64 { return s.queueMS }))
		out["service.run_ms"] = overRounds(traced, client(func(s *sample) float64 { return s.runMS }))
		out["service.wait_self_ms"] = overRounds(traced, client(func(s *sample) float64 {
			return s.submitMS + s.waitMS - s.queueMS - s.runMS
		}))
		out["service.result_fetch_ms"] = overRounds(traced, client(func(s *sample) float64 { return s.fetchMS }))
		out["service.result_kb"] = overRounds(traced, client(func(s *sample) float64 { return float64(s.resultBytes) / 1024 }))
		out["service.polls_per_job"] = overRounds(traced, func(r *roundStats) float64 {
			polls := 0
			for _, s := range r.samples {
				polls += s.polls
			}
			return float64(polls) / r.jobs()
		})
		counter := func(name string) func(*roundStats) float64 {
			return func(r *roundStats) float64 { return float64(r.counters[name]) / r.jobs() }
		}
		out["store.appends_per_job"] = overRounds(traced, counter(telemetry.CounterStoreAppends))
		out["store.fsyncs_per_job"] = overRounds(traced, counter(telemetry.CounterStoreFsyncs))
		out["events.published_per_job"] = overRounds(traced, counter(telemetry.CounterEventsPublished))
		// A compaction rewrites the log mid-round; WAL growth is taken
		// over the rounds without one when there are any.
		quiet := traced
		if q := withoutCompaction(traced); len(q) > 0 {
			quiet = q
		}
		out["store.wal_kb_per_job"] = overRounds(quiet, func(r *roundStats) float64 {
			return float64(r.walBytes) / 1024 / r.jobs()
		})
	}
	if w.Nodes > 1 {
		out["cluster.forwarded_pct"] = overRounds(traced, func(r *roundStats) float64 {
			return 100 * float64(r.counters[telemetry.CounterClusterForwarded]) / r.jobs()
		})
		out["cluster.proxied_per_job"] = overRounds(traced, func(r *roundStats) float64 {
			return float64(r.counters[telemetry.CounterClusterProxied]) / r.jobs()
		})
		out["cluster.peer_hit_pct"] = overRounds(traced, func(r *roundStats) float64 {
			hits := float64(r.counters[telemetry.CounterClusterRunPeerHits])
			total := hits + float64(r.counters[telemetry.CounterClusterRunPeerMisses])
			if total == 0 {
				return 0
			}
			return 100 * hits / total
		})
		computed := make([]float64, len(traced))
		for i, r := range traced {
			unique := 0
			for _, s := range r.samples {
				if !s.job.Repeat {
					unique++
				}
			}
			computed[i] = perJob[i]["core.runcache_misses_per_job"] * r.jobs() / float64(unique)
		}
		out["cluster.runs_computed_per_unique"] = summarize(computed)
		out["cluster.hop_ms"] = overRounds(traced, hopMS)
	}

	all := append(append([]*roundStats(nil), untraced...), traced...)
	out["runtime.machine_speed"] = overRounds(all, (*roundStats).speed)
	out["runtime.gc_cycles_per_100_jobs"] = overRounds(all, func(r *roundStats) float64 {
		return 100 * float64(r.gcCycles) / r.jobs()
	})
	out["client.job_ms_p95"] = overRounds(untraced, func(r *roundStats) float64 {
		_, ms := r.latencies()
		return percentile(ms, 95)
	})
	out["client.job_ms_max"] = single(maxJobMS(untraced))
	rates := make([]float64, len(untraced))
	for i, r := range untraced {
		rates[i] = r.refJobsPerS()
	}
	out["client.round_spread_pct"] = single(spreadPct(rates))
	plain, withTrace := median(rates), overRounds(traced, (*roundStats).refJobsPerS).Median
	out["trace.overhead_pct"] = single(100 * (plain - withTrace) / plain)
	return out
}

func withoutCompaction(rounds []*roundStats) []*roundStats {
	var quiet []*roundStats
	for _, r := range rounds {
		if r.counters[telemetry.CounterStoreCompactions] == 0 {
			quiet = append(quiet, r)
		}
	}
	return quiet
}

// hopMS is what a repeat job pays for having been placed on the node the
// client did not submit it to: forward, then result proxy.
func hopMS(r *roundStats) float64 {
	var local, remote []float64
	for _, s := range r.samples {
		if !s.job.Repeat || s.err != nil {
			continue
		}
		if strings.HasPrefix(s.id, nodeIDs[s.job.Node]+"-") {
			local = append(local, s.ms)
		} else {
			remote = append(remote, s.ms)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		return 0
	}
	return median(remote) - median(local)
}

func maxJobMS(rounds []*roundStats) float64 {
	slowest := 0.0
	for _, r := range rounds {
		for _, s := range r.samples {
			slowest = max(slowest, s.ms)
		}
	}
	return slowest
}
