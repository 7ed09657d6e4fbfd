package service

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentJobsSharedCache submits 32 identical jobs concurrently
// through the HTTP path and verifies the process-wide RunCache collapses
// their profiled runs: after a first warming job records M misses, the 32
// jobs after it add hits but no new misses — cross-job singleflight.
func TestConcurrentJobsSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 33 real flows")
	}
	s, ts := newTestServer(t, Config{Workers: 4, QueueSize: 64})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := ts.URL
	spec := JobSpec{Bench: "adpredictor"}

	warm := submitOK(t, base, spec)
	waitState(t, base, warm.ID, 120*time.Second, StateDone)
	before := fetchMetrics(t, base)
	if before.Service.RunCacheMiss == 0 {
		t.Fatal("warming job recorded no cache misses")
	}

	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitOK(t, base, spec).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, base, id, 180*time.Second, StateDone)
	}

	after := fetchMetrics(t, base)
	if after.Service.RunCacheMiss != before.Service.RunCacheMiss {
		t.Errorf("misses grew %d -> %d; identical jobs should be fully served by the shared cache",
			before.Service.RunCacheMiss, after.Service.RunCacheMiss)
	}
	if after.Service.RunCacheHits <= before.Service.RunCacheHits {
		t.Errorf("hits did not grow (%d -> %d)", before.Service.RunCacheHits, after.Service.RunCacheHits)
	}
	// The merged per-job counters expose the same story in /metrics.
	if after.Telemetry.Counters["runcache.hits"] <= before.Telemetry.Counters["runcache.hits"] {
		t.Errorf("telemetry runcache.hits did not grow (%d -> %d)",
			before.Telemetry.Counters["runcache.hits"], after.Telemetry.Counters["runcache.hits"])
	}
	if got := after.Service.JobsByState[string(StateDone)]; got != n+1 {
		t.Errorf("done jobs = %d, want %d", got, n+1)
	}
}

// TestColdConcurrentSingleflight submits identical jobs into a cold cache
// at once: singleflight must ensure the miss count matches a single
// sequential run (each unique profiled run executed exactly once).
func TestColdConcurrentSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real flows")
	}
	// Sequential baseline on its own server/cache.
	s1, ts1 := newTestServer(t, Config{Workers: 1, QueueSize: 8})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Bench: "kmeans"}
	st := submitOK(t, ts1.URL, spec)
	waitState(t, ts1.URL, st.ID, 120*time.Second, StateDone)
	baseline := fetchMetrics(t, ts1.URL).Service.RunCacheMiss

	// Cold cache, 8 identical jobs racing on 4 workers.
	s2, ts2 := newTestServer(t, Config{Workers: 4, QueueSize: 16})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitOK(t, ts2.URL, spec).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, ts2.URL, id, 180*time.Second, StateDone)
	}
	m := fetchMetrics(t, ts2.URL)
	if m.Service.RunCacheMiss != baseline {
		t.Errorf("concurrent cold misses = %d, sequential baseline = %d; singleflight should collapse duplicates",
			m.Service.RunCacheMiss, baseline)
	}
	if m.Service.RunCacheHits == 0 {
		t.Error("no cache hits across concurrent identical jobs")
	}
}
