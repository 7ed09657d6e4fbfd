// Command psaflowd serves PSA-flows over HTTP: clients POST MiniC source +
// workload + mode to /v1/jobs, a bounded worker pool executes the flows
// against one process-wide profiled-run cache, and every submission and
// terminal result is logged durably to a write-ahead store under -data-dir
// (submissions are acknowledged only after the fsync). A crash loses nothing acknowledged:
// the next start replays the WAL, serves finished results, and requeues
// jobs that were queued or running. SIGINT/SIGTERM drains gracefully: the
// listener stops, in-flight jobs finish, still-queued jobs stay in the
// store, and a WAL shutdown record suppresses the recovery log line.
//
// Usage:
//
//	psaflowd [-addr :8080] [-workers 4] [-queue 64] [-data-dir DIR]
//	         [-timeout 5m] [-faults seed=1,rate=0.1,kinds=hls,run]
//	         [-event-ring 1024] [-event-watchers 1024] [-retain 1024]
//	         [-max-body 1048576] [-store-retain 0]
//	         [-node-id n1 -peers n2=http://...,n3=http://...]
//	         [-tenant-quota acme=4:2,guest=1] [-pprof 127.0.0.1:6060] [-v]
//
// With -node-id and -peers, N daemons form one logical service: jobs
// route to their (tenant, program-fingerprint) ring owner, any node
// proxies status/result/event reads for jobs it does not hold, and
// profiled-run results are shared cluster-wide through a fingerprint-
// keyed read-through cache (each unique program+workload is profiled
// once per cluster, not once per node).
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (202; 429 when the queue is full)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result designs + telemetry (409 while running)
//	GET    /v1/jobs/{id}/events live event stream, NDJSON or SSE (?from=N resumes)
//	DELETE /v1/jobs/{id}        cancel (queued: 200; running: 202)
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             service gauges + telemetry report
//
// -pprof serves net/http/pprof (/debug/pprof/...) on a listener of its own
// — diagnostics never share the job port. docs/OPERATIONS.md, "Where the
// memory goes", has the two commands worth knowing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"psaflow/internal/cluster"
	"psaflow/internal/faults"
	"psaflow/internal/service"
)

// buildClusterNode turns the -node-id/-peers flags into a cluster node,
// or nil when clustering is off. The peer table is "id=url" pairs; the
// local node must not appear in it.
func buildClusterNode(nodeID, peers string, logf func(string, ...any)) (*cluster.Node, error) {
	if nodeID == "" {
		if peers != "" {
			return nil, fmt.Errorf("-peers requires -node-id")
		}
		return nil, nil
	}
	if !cluster.ValidNodeID(nodeID) {
		return nil, fmt.Errorf("-node-id %q: want 1-16 of [a-z0-9]", nodeID)
	}
	table := make(map[string]string)
	for _, entry := range strings.Split(peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=http://host:port", entry)
		}
		if id == nodeID {
			return nil, fmt.Errorf("-peers entry %q names this node; list only the others", entry)
		}
		table[id] = url
	}
	return cluster.New(cluster.Config{Self: nodeID, Peers: table, Logf: logf})
}

// servePprof serves the runtime profiles on addr, on a mux that holds
// nothing else, until the returned server is closed.
func servePprof(addr string, logger *log.Logger) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also heap, allocs, goroutine, mutex, block by name
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("pprof: %v", err)
		}
	}()
	logger.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	return srv, nil
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 4, "worker pool size (concurrent flows)")
	queueSize := flag.Int("queue", 64, "job queue capacity (beyond it, submissions get 429)")
	dataDir := flag.String("data-dir", "", "root the durable job store (WAL, replayed on start) here (empty = no persistence)")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-job run-time bound (0 = unbounded)")
	faultSpec := flag.String("faults", "", `default fault-injection spec for jobs without their own ("" or "off" disables; kinds=io also targets persistence writes)`)
	eventRing := flag.Int("event-ring", 0, "per-job event ring size: the /events replay window (0 = default 1024)")
	eventWatchers := flag.Int("event-watchers", 0, "max concurrent /events watchers per job, beyond it 429 (0 = default 1024)")
	retainJobs := flag.Int("retain", 0, "terminal jobs kept in memory before eviction to store-backed lookups (0 = default 1024, negative = never evict)")
	maxBody := flag.Int64("max-body", 0, "max submit request body in bytes, beyond it 413 (0 = default 1 MiB)")
	storeRetain := flag.Int("store-retain", 0, "terminal job records kept in the durable store before tombstoning (0 = unlimited)")
	nodeID := flag.String("node-id", "", "this node's cluster identity, 1-16 of [a-z0-9] (empty = single-node, no clustering)")
	peers := flag.String("peers", "", `cluster peer table: comma-separated id=http://host:port entries, e.g. "n2=http://10.0.0.2:8080,n3=http://10.0.0.3:8080"`)
	tenantQuotas := flag.String("tenant-quota", "", `per-tenant scheduling contracts: comma-separated tenant=maxInflight[:weight], "*" = default, e.g. "acme=4:2,guest=1"`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty = off), e.g. 127.0.0.1:6060")
	verbose := flag.Bool("v", false, "log job lifecycle events")
	flag.Parse()

	if _, err := faults.ParseSpec(*faultSpec); err != nil {
		fmt.Fprintln(os.Stderr, "psaflowd:", err)
		os.Exit(2)
	}
	if _, err := service.ParseTenantQuotas(*tenantQuotas); err != nil {
		fmt.Fprintln(os.Stderr, "psaflowd:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "psaflowd: ", log.LstdFlags|log.Lmsgprefix)
	var logf func(string, ...any)
	if *verbose {
		logf = logger.Printf
	}

	node, err := buildClusterNode(*nodeID, *peers, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psaflowd:", err)
		os.Exit(2)
	}

	s := service.New(service.Config{
		Workers:        *workers,
		QueueSize:      *queueSize,
		DataDir:        *dataDir,
		DefaultTimeout: *timeout,
		Faults:         *faultSpec,

		EventRingSize:     *eventRing,
		MaxWatchersPerJob: *eventWatchers,
		RetainJobs:        *retainJobs,
		MaxBody:           *maxBody,
		StoreRetain:       *storeRetain,

		TenantQuotas: *tenantQuotas,
		Cluster:      node,

		Logf: logf,
	})
	if err := s.Start(); err != nil {
		logger.Fatalf("start: %v", err)
	}

	if *pprofAddr != "" {
		pprofSrv, err := servePprof(*pprofAddr, logger)
		if err != nil {
			logger.Fatalf("pprof: %v", err)
		}
		defer pprofSrv.Close()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s (workers=%d queue=%d data-dir=%q)", *addr, *workers, *queueSize, *dataDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("%s: draining (in-flight jobs finish, queued jobs stay durable in the store)", sig)
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	// Stop accepting connections first, then drain the queue so no new job
	// can slip in behind the WAL shutdown record.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	leftover, err := s.Drain()
	if err != nil {
		logger.Fatalf("drain: %v", err)
	}
	if leftover > 0 {
		fmt.Fprintf(os.Stderr, "psaflowd: %d queued job(s) remain durable in the store\n", leftover)
	}
	logger.Printf("drained cleanly")
}
