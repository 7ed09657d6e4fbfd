package experiments

// Chaos sweep: seeded fault injection over the evaluation benchmarks.
// The acceptance bar (see docs/FAULTS.md) is that informed-mode flows
// complete with at least one feasible — possibly degraded — design in
// 100% of seeded runs: accelerator failures must degrade and fall back,
// never abort, because the CPU path has no injectable substrate.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// ChaosRun is one seeded flow execution on one benchmark.
type ChaosRun struct {
	Bench string `json:"bench"`
	Seed  int64  `json:"seed"`
	// Completed means the flow returned without error AND produced at
	// least one feasible design.
	Completed bool `json:"completed"`
	// Feasible / Designs count the leaves with and without an
	// infeasibility verdict (degraded paths land in the second bucket).
	Feasible int    `json:"feasible_designs"`
	Designs  int    `json:"designs"`
	Error    string `json:"error,omitempty"`
	// Resilience counters from the run's recorder.
	FaultsInjected int64 `json:"faults_injected"`
	RetryAttempts  int64 `json:"retry_attempts"`
	Degradations   int64 `json:"degradations"`
	Fallbacks      int64 `json:"fallbacks"`
}

// ChaosReport is the aggregate psabench -chaos-json writes.
type ChaosReport struct {
	// Date is stamped by the CLI (the library stays clock-free).
	Date string `json:"date,omitempty"`
	Mode string `json:"mode"`
	// Spec is the base fault spec; each run replays it under its own seed.
	Spec string     `json:"spec"`
	Runs []ChaosRun `json:"runs"`
	// CompletionRate is completed runs / total runs (the acceptance bar
	// for informed mode is 1.0).
	CompletionRate float64 `json:"completion_rate"`
	TotalFaults    int64   `json:"total_faults_injected"`
	TotalRetries   int64   `json:"total_retry_attempts"`
	TotalDegraded  int64   `json:"total_degradations"`
	TotalFallbacks int64   `json:"total_fallbacks"`
}

// RunChaos sweeps the flow over every benchmark × seeds consecutive
// seeds starting at base's seed, with fault injection from base's rate
// and kind set. Individual run failures are recorded, not returned: the
// report is the result either way.
func RunChaos(mode tasks.Mode, base *faults.Injector, seeds int, retry faults.RetryPolicy, logf func(string, ...any)) *ChaosReport {
	rep := &ChaosReport{Mode: mode.String(), Spec: base.String()}
	if seeds <= 0 {
		seeds = 1
	}
	// One profiled-run cache across the sweep: injection fires before the
	// cache lookup, so faults still land on cache hits and each run's
	// outcome stays a pure function of its seed.
	runs := core.NewRunCache()
	completed := 0
	for i := 0; i < seeds; i++ {
		seed := base.Seed() + int64(i)
		for _, b := range bench.All() {
			r := runChaosOne(mode, b, base.WithSeed(seed), retry, runs, logf)
			if r.Completed {
				completed++
			}
			rep.Runs = append(rep.Runs, r)
			rep.TotalFaults += r.FaultsInjected
			rep.TotalRetries += r.RetryAttempts
			rep.TotalDegraded += r.Degradations
			rep.TotalFallbacks += r.Fallbacks
		}
	}
	rep.CompletionRate = float64(completed) / float64(len(rep.Runs))
	return rep
}

func runChaosOne(mode tasks.Mode, b *bench.Benchmark, inj *faults.Injector, retry faults.RetryPolicy, runs *core.RunCache, logf func(string, ...any)) ChaosRun {
	rec := telemetry.New()
	env := JobEnv{Faults: inj, Retry: retry}
	out := ChaosRun{Bench: b.Name, Seed: inj.Seed()}
	results, err := RunBenchmarkEnv(context.Background(), b, nil,
		tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy}, env, logf, rec, runs)
	if err != nil {
		out.Error = err.Error()
	}
	out.Designs = len(results)
	for _, r := range results {
		if !r.Infeasible {
			out.Feasible++
		}
	}
	out.Completed = err == nil && out.Feasible > 0
	snap := rec.Snapshot()
	out.FaultsInjected = snap.Counters[telemetry.CounterFaultsInjected]
	out.RetryAttempts = snap.Counters[telemetry.CounterRetryAttempts]
	out.Degradations = snap.Counters[telemetry.CounterFaultDegradations]
	out.Fallbacks = snap.Counters[telemetry.CounterFaultFallbacks]
	return out
}

// JSON marshals the report (psabench -chaos-json).
func (r *ChaosReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatChaos renders the per-run table plus the aggregate line the
// chaos CLI prints.
func FormatChaos(r *ChaosReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %5s %9s %9s %7s %8s %8s %6s\n",
		"benchmark", "seed", "complete", "feasible", "faults", "retries", "degrade", "fall")
	for _, run := range r.Runs {
		status := "ok"
		if !run.Completed {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-12s %5d %9s %5d/%-3d %7d %8d %8d %6d\n",
			run.Bench, run.Seed, status, run.Feasible, run.Designs,
			run.FaultsInjected, run.RetryAttempts, run.Degradations, run.Fallbacks)
		if run.Error != "" {
			fmt.Fprintf(&sb, "    error: %s\n", run.Error)
		}
	}
	fmt.Fprintf(&sb, "\n%s mode, spec %s: %d runs, completion %.0f%%, %d faults, %d retries, %d degradations, %d fallbacks\n",
		r.Mode, r.Spec, len(r.Runs), r.CompletionRate*100,
		r.TotalFaults, r.TotalRetries, r.TotalDegraded, r.TotalFallbacks)
	return sb.String()
}
