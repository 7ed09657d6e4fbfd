package service

import (
	"net/http"

	"psaflow/internal/cluster"
	"psaflow/internal/telemetry"
)

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":      status,
		"workers":     s.cfg.Workers,
		"queue_depth": s.queue.Len(),
		"queue_cap":   s.cfg.QueueSize,
	}
	if c := s.cfg.Cluster; c != nil {
		body["node"] = c.Self()
		body["ring"] = c.Nodes()
		body["peers"] = c.PeerView()
		body["cluster_peers_healthy"] = c.HealthyCount()
	}
	writeJSON(w, code, body)
}

// metricsResponse is the GET /metrics payload: what the service reads at
// request time, plus the process-wide telemetry report (merged per-job
// counters; cross-job run-cache hits show up under counters["runcache.hits"]).
// Every cumulative number is served once, as a telemetry counter.
type metricsResponse struct {
	Service   serviceMetrics    `json:"service"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

// serviceMetrics holds what no recorder counter holds: configuration,
// gauges read from the state that owns them, and values derived from
// counters. docs/OPERATIONS.md has one table row per field
// (TestMetricsServiceBlockDocumented).
type serviceMetrics struct {
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	JobsByState   map[string]int `json:"jobs_by_state"`
	RunCacheHits  int64          `json:"runcache_hits"`
	RunCacheMiss  int64          `json:"runcache_misses"`
	RunCacheSize  int            `json:"runcache_entries"`
	QueueWaitMSav float64        `json:"queue_wait_ms_avg"`
	// FlowsRegistered counts flow-registry names; the cumulative registry
	// traffic is in the telemetry counters (flowlang.registry.*).
	FlowsRegistered int `json:"flows_registered"`
	// EventWatchers is the number of event streams attached to the jobs in
	// the registry.
	EventWatchers int `json:"event_watchers"`
	// Store is the durable job store's gauges; nil when persistence is
	// disabled (no -data-dir). Its counters are the store.* telemetry
	// counters.
	Store *storeGauges `json:"store,omitempty"`
	// Tenants is the fair-share scheduler's per-tenant view (queued,
	// in-flight, quota); empty when no tenant has jobs.
	Tenants []tenantView `json:"tenants,omitempty"`
	// Cluster is the peer-layer view; nil on a single-node daemon. The
	// cumulative cluster.* counters live in the telemetry report.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// storeGauges is the /metrics view of the WAL-backed job store.
type storeGauges struct {
	Segments    int   `json:"segments"`
	IndexedJobs int   `json:"indexed_jobs"`
	PendingJobs int   `json:"pending_jobs"`
	LiveFrames  int64 `json:"live_frames"`
	DeadFrames  int64 `json:"dead_frames"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := map[string]int{}
	watchers := 0
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[string(j.State())]++
		_, _, subs := j.events.Stats()
		watchers += subs
	}
	s.mu.Unlock()
	// Fold the latest store deltas into the recorder before snapshotting,
	// so the store.* counters are current.
	st := s.syncStoreCounters()
	var storeG *storeGauges
	if s.store != nil {
		storeG = &storeGauges{Segments: st.Segments, IndexedJobs: st.IndexedJobs,
			PendingJobs: st.PendingJobs, LiveFrames: st.LiveFrames, DeadFrames: st.DeadFrames}
	}
	var clusterS *cluster.Stats
	if c := s.cfg.Cluster; c != nil {
		cs := c.Stats()
		clusterS = &cs
	}
	hits, misses := s.runs.Stats()
	rep := s.rec.Snapshot()
	// Average over the jobs whose wait was actually recorded (every job a
	// worker started), not the terminal-state counts: a running job that
	// is later cancelled contributed to the numerator the moment it
	// started, and dividing by completed+failed would skew the average.
	waitAvg := 0.0
	if started := rep.Counters[telemetry.CounterJobsStarted]; started > 0 {
		waitAvg = float64(rep.Counters[telemetry.CounterQueueWaitMillis]) / float64(started)
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		Service: serviceMetrics{
			Workers:         s.cfg.Workers,
			QueueDepth:      s.queue.Len(),
			QueueCap:        s.cfg.QueueSize,
			JobsByState:     byState,
			RunCacheHits:    hits,
			RunCacheMiss:    misses,
			RunCacheSize:    s.runs.Len(),
			QueueWaitMSav:   waitAvg,
			FlowsRegistered: len(s.listFlows()),
			EventWatchers:   watchers,
			Store:           storeG,
			Tenants:         s.queue.Tenants(),
			Cluster:         clusterS,
		},
		Telemetry: rep,
	})
}
