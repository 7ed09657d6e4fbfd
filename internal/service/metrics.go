package service

import (
	"net/http"

	"psaflow/internal/store"
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
		"queue_depth": s.rec.Counter(telemetry.CounterQueueDepth),
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

// metricsResponse is the GET /metrics payload: live service gauges plus
// the process-wide telemetry report (merged per-job counters; cross-job
// run-cache hits show up under counters["runcache.hits"]).
type metricsResponse struct {
	Service   serviceMetrics    `json:"service"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

type serviceMetrics struct {
	Workers       int            `json:"workers"`
	QueueDepth    int64          `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	JobsByState   map[string]int `json:"jobs_by_state"`
	JobsStarted   int64          `json:"jobs_started"`
	JobsEvicted   int64          `json:"jobs_evicted"`
	RunCacheHits  int64          `json:"runcache_hits"`
	RunCacheMiss  int64          `json:"runcache_misses"`
	RunCacheSize  int            `json:"runcache_entries"`
	BatchGroups   int64          `json:"batch_groups"`
	BatchJobs     int64          `json:"batch_jobs"`
	QueueWaitMSav float64        `json:"queue_wait_ms_avg"`
	// FlowsRegistered counts flow-registry names (gauge); the cumulative
	// registry traffic is in the telemetry counters (flowlang.registry.*).
	FlowsRegistered int `json:"flows_registered"`
	// Live event-stream counters: events published across all job rings,
	// events lost to ring eviction past slow watchers, and the current
	// number of attached watchers (gauge).
	EventsPublished int64 `json:"events_published"`
	EventsDropped   int64 `json:"events_dropped"`
	EventWatchers   int64 `json:"event_watchers"`
	// Headline resilience counters, folded in from every finished job's
	// recorder plus the daemon's own persistence retries. The per-kind
	// split lives in the telemetry report (fault.injected.<kind>).
	FaultsInjected int64 `json:"faults_injected"`
	RetryAttempts  int64 `json:"retry_attempts"`
	Degradations   int64 `json:"fault_degradations"`
	Fallbacks      int64 `json:"fault_fallbacks"`
	// Store mirrors the durable job store's counters and gauges; nil when
	// persistence is disabled (no -data-dir).
	Store *storeMetrics `json:"store,omitempty"`
	// Tenants is the fair-share scheduler's per-tenant view (queued,
	// in-flight, quota); empty when no tenant has jobs.
	Tenants []tenantView `json:"tenants,omitempty"`
	// Cluster is the peer-layer view; nil on a single-node daemon. The
	// cumulative cluster.* counters live in the telemetry report.
	Cluster *clusterMetrics `json:"cluster,omitempty"`
}

// storeMetrics is the /metrics view of the WAL-backed job store: the
// store's own stats plus the one number only the service knows.
type storeMetrics struct {
	store.Stats
	Requeued int64 `json:"requeued"` // jobs re-enqueued by the start-up replay
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[string(j.State())]++
	}
	s.mu.Unlock()
	// Fold the latest store deltas into the recorder before snapshotting
	// so the telemetry counters and the service.store block agree.
	storeStats := s.syncStoreCounters()
	var storeM *storeMetrics
	if s.store != nil {
		storeM = &storeMetrics{Stats: storeStats, Requeued: s.rec.Counter(telemetry.CounterStoreRequeued)}
	}
	var clusterM *clusterMetrics
	if c := s.cfg.Cluster; c != nil {
		clusterM = &clusterMetrics{
			Stats:            c.Stats(),
			RunCachePeerHits: s.runs.PeerHits(),
			JobsForwarded:    s.rec.Counter(telemetry.CounterClusterForwarded),
			JobsProxied:      s.rec.Counter(telemetry.CounterClusterProxied),
			ForwardFailed:    s.rec.Counter(telemetry.CounterClusterForwardFailed),
			LocalFallbacks:   s.rec.Counter(telemetry.CounterClusterForwardedLocal),
		}
	}
	hits, misses := s.runs.Stats()
	rep := s.rec.Snapshot()
	// Average over the jobs whose wait was actually recorded (every job a
	// worker started), not the terminal-state counts: a running job that
	// is later cancelled contributed to the numerator the moment it
	// started, and dividing by completed+failed would skew the average.
	started := rep.Counters[telemetry.CounterJobsStarted]
	waitAvg := 0.0
	if started > 0 {
		waitAvg = float64(rep.Counters[telemetry.CounterQueueWaitMillis]) / float64(started)
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		Service: serviceMetrics{
			Workers:         s.cfg.Workers,
			QueueDepth:      rep.Counters[telemetry.CounterQueueDepth],
			QueueCap:        s.cfg.QueueSize,
			JobsByState:     byState,
			JobsStarted:     started,
			JobsEvicted:     rep.Counters[telemetry.CounterJobsEvicted],
			RunCacheHits:    hits,
			RunCacheMiss:    misses,
			RunCacheSize:    s.runs.Len(),
			BatchGroups:     rep.Counters[telemetry.CounterBatchGroups],
			BatchJobs:       rep.Counters[telemetry.CounterBatchJobs],
			QueueWaitMSav:   waitAvg,
			FlowsRegistered: len(s.listFlows()),

			EventsPublished: rep.Counters[telemetry.CounterEventsPublished],
			EventsDropped:   rep.Counters[telemetry.CounterEventsDropped],
			EventWatchers:   rep.Counters[telemetry.CounterEventWatchers],

			FaultsInjected: rep.Counters[telemetry.CounterFaultsInjected],
			RetryAttempts:  rep.Counters[telemetry.CounterRetryAttempts],
			Degradations:   rep.Counters[telemetry.CounterFaultDegradations],
			Fallbacks:      rep.Counters[telemetry.CounterFaultFallbacks],
			Store:          storeM,
			Tenants:        s.queue.Tenants(),
			Cluster:        clusterM,
		},
		Telemetry: rep,
	})
}
