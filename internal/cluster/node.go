package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"psaflow/internal/core"
	"psaflow/internal/faults"
	"psaflow/internal/interp"
	"psaflow/internal/telemetry"
)

// Sink receives cluster counters; *telemetry.Recorder satisfies it.
type Sink interface {
	Add(name string, delta int64)
}

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's ID: 1-16 lowercase alphanumerics. It prefixes
	// every job ID the node mints, which is how any node maps an unknown
	// job ID back to its owner.
	Self string
	// Peers maps node ID → base URL for the full membership (self may be
	// included; its URL is advertisory). A single-entry map is a valid
	// one-node cluster — every owner lookup resolves to self.
	Peers map[string]string
	// Retry shapes the backoff for idempotent peer requests (fetches,
	// pings); zero fields take faults.DefaultRetry. Forwarded submissions
	// are never retried — a submit is not idempotent, and the caller's
	// local fallback already guarantees the job runs.
	Retry faults.RetryPolicy
	// PingInterval is the peer health-probe cadence (default 1s).
	PingInterval time.Duration
	// FetchWait bounds how long a run-cache fetch blocks on a peer's
	// in-flight computation of the same key before degrading to local
	// compute (default 2s).
	FetchWait time.Duration
	// HTTPTimeout bounds each peer request (default 5s; must exceed
	// FetchWait or waiting fetches would be cut off by their transport).
	HTTPTimeout time.Duration
	// LoadBound is the bounded-load factor c: a node whose last-known
	// load exceeds c·(mean healthy load)+1 is skipped at job placement
	// and the key spills to the next node on the ring (default 1.25).
	LoadBound float64
	// Logf receives peer-layer progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// ValidNodeID reports whether id can prefix job IDs: 1-16 lowercase
// alphanumerics (no dash — the dash separates the prefix from the job
// counter, so IDs stay unambiguous).
func ValidNodeID(id string) bool {
	if id == "" || len(id) > 16 {
		return false
	}
	for _, c := range id {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// peerState tracks one remote node's reachability. A peer is unhealthy
// after two consecutive failed contacts and recovers on the first
// success — routing consults this on every placement, which is what
// rehashes a dead node's keyspace onto the survivors with no membership
// change.
type peerState struct {
	id  string
	url string

	mu       sync.Mutex
	lastOK   time.Time
	lastErr  string
	fails    int
	load     int64
	everSeen bool
}

const unhealthyAfter = 2 // consecutive failures

func (p *peerState) markOK(load int64, hasLoad bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastOK = time.Now()
	p.lastErr = ""
	p.fails = 0
	p.everSeen = true
	if hasLoad {
		p.load = load
	}
}

func (p *peerState) markFail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	p.lastErr = err.Error()
}

func (p *peerState) healthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fails < unhealthyAfter
}

func (p *peerState) snapshot() PeerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	info := PeerInfo{
		ID: p.id, URL: p.url,
		Healthy: p.fails < unhealthyAfter,
		Load:    p.load,
	}
	if !p.lastOK.IsZero() {
		info.LastContact = p.lastOK.UTC().Format(time.RFC3339Nano)
	}
	info.LastError = p.lastErr
	return info
}

// PeerInfo is one node's health row in the /healthz peer view.
type PeerInfo struct {
	ID          string `json:"id"`
	URL         string `json:"url,omitempty"`
	Self        bool   `json:"self,omitempty"`
	Healthy     bool   `json:"healthy"`
	Load        int64  `json:"load"`
	LastContact string `json:"last_contact,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// Stats is the /metrics view of the peer layer.
type Stats struct {
	Self         string   `json:"self"`
	Nodes        []string `json:"nodes"`
	HealthyNodes int      `json:"healthy_nodes"` // self included
	RunEntries   int      `json:"run_entries"`   // owner-side envelope store
	RunEvicted   int64    `json:"run_evicted"`
}

// Node is one psaflowd process's membership in the cluster. It owns the
// ring, the peer health table, the owner-side cache stores, and the
// HTTP client side of the peer protocol; it implements core.RunPeer so
// the process-wide run cache reads through it.
type Node struct {
	cfg   Config
	self  string
	retry faults.RetryPolicy

	mu    sync.Mutex
	ring  *Ring
	peers map[string]*peerState // remote nodes only

	client *http.Client // per-request timeout (peer protocol)
	// streamClient has no timeout: proxied event streams live as long as
	// the job (cancellation comes from the client's request context).
	streamClient *http.Client

	runs *runStore
	now  func() time.Time // the run store's clock (pending-mark expiry)

	counters Sink
	loadFn   func() int64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a node. Peers may be empty or self-only (a one-node
// cluster); membership can be replaced later with SetPeers.
func New(cfg Config) (*Node, error) {
	if !ValidNodeID(cfg.Self) {
		return nil, fmt.Errorf("cluster: invalid node ID %q (want 1-16 lowercase alphanumerics)", cfg.Self)
	}
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = time.Second
	}
	if cfg.FetchWait <= 0 {
		cfg.FetchWait = 2 * time.Second
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 5 * time.Second
	}
	if cfg.HTTPTimeout <= cfg.FetchWait {
		cfg.HTTPTimeout = cfg.FetchWait + 3*time.Second
	}
	if cfg.LoadBound <= 1 {
		cfg.LoadBound = 1.25
	}
	n := &Node{
		cfg:          cfg,
		self:         cfg.Self,
		retry:        cfg.Retry.WithDefaults(),
		client:       &http.Client{Timeout: cfg.HTTPTimeout},
		streamClient: &http.Client{},
		runs:         newRunStore(runStoreCap),
		now:          time.Now,
		stop:         make(chan struct{}),
	}
	if err := n.SetPeers(cfg.Peers); err != nil {
		return nil, err
	}
	return n, nil
}

// SetPeers replaces the membership (self is always a member, with or
// without an entry in peers). Existing health state is kept for nodes
// that remain.
func (n *Node) SetPeers(peers map[string]string) error {
	ids := []string{n.self}
	for id := range peers {
		if !ValidNodeID(id) {
			return fmt.Errorf("cluster: invalid peer ID %q", id)
		}
		if id != n.self {
			ids = append(ids, id)
		}
	}
	ring := NewRing(ids)
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.peers
	n.peers = make(map[string]*peerState, len(peers))
	for id, url := range peers {
		if id == n.self {
			continue
		}
		if p := old[id]; p != nil && p.url == url {
			n.peers[id] = p
			continue
		}
		n.peers[id] = &peerState{id: id, url: url}
	}
	n.ring = ring
	return nil
}

// Self returns this node's ID.
func (n *Node) Self() string { return n.self }

// SetCounters wires the telemetry sink (call before Start).
func (n *Node) SetCounters(s Sink) { n.counters = s }

// SetLoadFunc wires the local-load probe used by bounded-load placement
// and advertised to peers (typically queue depth + running jobs).
func (n *Node) SetLoadFunc(f func() int64) { n.loadFn = f }

func (n *Node) count(name string, delta int64) {
	if n.counters != nil && delta != 0 {
		n.counters.Add(name, delta)
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) localLoad() int64 {
	if n.loadFn == nil {
		return 0
	}
	return n.loadFn()
}

// Start spawns the health pinger (no-op on a peerless node).
func (n *Node) Start() {
	n.mu.Lock()
	hasPeers := len(n.peers) > 0
	n.mu.Unlock()
	if !hasPeers {
		return
	}
	n.wg.Add(1)
	go n.pinger()
}

// Stop halts the pinger and waits for it.
func (n *Node) Stop() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) pinger() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.pingAll()
		}
	}
}

func (n *Node) pingAll() {
	n.mu.Lock()
	peers := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			n.count(telemetry.CounterClusterPings, 1)
			resp, err := n.do(context.Background(), p, http.MethodGet, "/v1/cluster/ping", nil)
			if err != nil {
				n.count(telemetry.CounterClusterPingFailures, 1)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}(p)
	}
	wg.Wait()
}

// HealthyCount returns the number of healthy nodes, self included.
func (n *Node) HealthyCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 1
	for _, p := range n.peers {
		if p.healthy() {
			count++
		}
	}
	return count
}

// Healthy reports whether the given node is currently routable.
func (n *Node) Healthy(id string) bool {
	if id == n.self {
		return true
	}
	n.mu.Lock()
	p := n.peers[id]
	n.mu.Unlock()
	return p != nil && p.healthy()
}

// PeerURL returns the base URL for a remote node.
func (n *Node) PeerURL(id string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[id]
	if p == nil {
		return "", false
	}
	return p.url, true
}

// Nodes returns the full membership, sorted.
func (n *Node) Nodes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Nodes()
}

// PeerView returns the health table for /healthz, self first.
func (n *Node) PeerView() []PeerInfo {
	n.mu.Lock()
	peers := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	selfURL := n.cfg.Peers[n.self]
	n.mu.Unlock()
	view := []PeerInfo{{ID: n.self, URL: selfURL, Self: true, Healthy: true, Load: n.localLoad()}}
	rest := make([]PeerInfo, 0, len(peers))
	for _, p := range peers {
		rest = append(rest, p.snapshot())
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	return append(view, rest...)
}

// Stats snapshots the peer layer for /metrics.
func (n *Node) Stats() Stats {
	entries, evicted := n.runs.stats()
	return Stats{
		Self:         n.self,
		Nodes:        n.Nodes(),
		HealthyNodes: n.HealthyCount(),
		RunEntries:   entries,
		RunEvicted:   evicted,
	}
}

// OwnerForJob places a job: bounded-load consistent hashing over the
// healthy nodes, keyed by (tenant, program fingerprint) so one tenant's
// duplicate submissions co-locate with the cache entries they will hit.
// Returns self when the ring yields nothing routable.
func (n *Node) OwnerForJob(tenant string, fingerprint uint64) string {
	n.mu.Lock()
	ring := n.ring
	peers := n.peers
	healthyLoads := []int64{n.localLoad()}
	for _, p := range peers {
		if p.healthy() {
			p.mu.Lock()
			healthyLoads = append(healthyLoads, p.load)
			p.mu.Unlock()
		}
	}
	n.mu.Unlock()
	var total int64
	for _, l := range healthyLoads {
		total += l
	}
	bound := int64(n.cfg.LoadBound*float64(total)/float64(len(healthyLoads))) + 1
	owner := ring.OwnerWhere(JobKey(tenant, fingerprint), func(id string) bool {
		if id == n.self {
			return n.localLoad() <= bound
		}
		p := peers[id]
		if p == nil || !p.healthy() {
			return false
		}
		p.mu.Lock()
		load := p.load
		p.mu.Unlock()
		return load <= bound
	})
	if owner == "" {
		// Everything is over-bound or down: run it here rather than
		// refuse it. Backpressure, if warranted, comes from the queue.
		return n.self
	}
	return owner
}

// ownerHealthy walks the ring with a health-only accept — cache
// ownership must not chase load, or hit rates would collapse every time
// a queue grows.
func (n *Node) ownerHealthy(key uint64) string {
	n.mu.Lock()
	ring := n.ring
	peers := n.peers
	n.mu.Unlock()
	owner := ring.OwnerWhere(key, func(id string) bool {
		if id == n.self {
			return true
		}
		p := peers[id]
		return p != nil && p.healthy()
	})
	if owner == "" {
		return n.self
	}
	return owner
}

// --- peer HTTP client ---

// do sends one request to a peer and updates its health from the
// outcome. Any HTTP response counts as contact; only transport errors
// count against health.
func (n *Node) do(ctx context.Context, p *peerState, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.url+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Psaflow-Node", n.self)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		p.markFail(err)
		return nil, err
	}
	load, perr := strconv.ParseInt(resp.Header.Get("X-Psaflow-Load"), 10, 64)
	p.markOK(load, perr == nil)
	return resp, nil
}

// doRetry wraps do with the node's retry policy for idempotent
// requests: transport errors are classified transient (an I/O fault in
// the engine's taxonomy) and retried with deterministic backoff.
func (n *Node) doRetry(ctx context.Context, p *peerState, method, path string, body []byte, op string) (*http.Response, error) {
	var resp *http.Response
	err := n.retry.Do(ctx, op, func(retry int, delay time.Duration, err error) {
		n.logf("cluster: %s: retry %d after %v: %v", op, retry, delay, err)
	}, func() error {
		r, err := n.do(ctx, p, method, path, body)
		if err != nil {
			return fmt.Errorf("cluster: %w", &faults.Fault{
				Kind: faults.IO, Op: fmt.Sprintf("%s (%v)", op, err), Transient: true,
			})
		}
		resp = r
		return nil
	})
	return resp, err
}

func (n *Node) peer(id string) *peerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// ForwardSubmit posts a forwarded job submission to a peer. Exactly one
// attempt: a submit is not idempotent, and the caller's local fallback
// already guarantees the job runs somewhere.
func (n *Node) ForwardSubmit(ctx context.Context, id string, body []byte) (*http.Response, error) {
	p := n.peer(id)
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", id)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/jobs", rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, n.self)
	resp, err := n.client.Do(req)
	if err != nil {
		p.markFail(err)
		return nil, err
	}
	p.markOK(0, false)
	return resp, nil
}

// StreamClient returns the timeout-free client used for proxied event
// streams (lifetime bounded by the proxied request's context).
func (n *Node) StreamClient() *http.Client { return n.streamClient }

// --- core.RunPeer ---

// FetchRun implements core.RunPeer: on a local run-cache miss, ask the
// key's ring owner before computing. A miss answer doubles as the
// cluster-wide singleflight claim — the owner marks the key pending
// under this node, and every other node's fetch blocks (bounded) for
// the fill instead of recomputing. Peer failure is a miss, never an
// error: the caller computes locally and the cluster degrades to
// per-node caching.
func (n *Node) FetchRun(key core.RunKey) (*interp.Result, bool) {
	keyID := RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)
	owner := n.ownerHealthy(RunKeyHash(keyID))
	if owner == n.self {
		payload, sum, hit, _, _ := n.runs.fetch(keyID, n.cfg.FetchWait, n.now)
		if !hit {
			n.count(telemetry.CounterClusterRunPeerMisses, 1)
			return nil, false
		}
		res, err := DecodeResult(payload, sum)
		if err != nil {
			n.count(telemetry.CounterClusterRunFetchErrors, 1)
			n.logf("cluster: local envelope for %.12s corrupt: %v", keyID, err)
			return nil, false
		}
		n.count(telemetry.CounterClusterRunPeerHits, 1)
		return res, true
	}
	p := n.peer(owner)
	if p == nil {
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		return nil, false
	}
	path := fmt.Sprintf("/v1/cluster/runs/%s?wait=%d", keyID, n.cfg.FetchWait.Milliseconds())
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.HTTPTimeout)
	defer cancel()
	resp, err := n.doRetry(ctx, p, http.MethodGet, path, nil, "cluster:fetch-run")
	if err != nil {
		n.count(telemetry.CounterClusterRunFetchErrors, 1)
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		n.count(telemetry.CounterClusterRunFetchErrors, 1)
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		return nil, false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes+1))
	if err != nil || len(payload) > maxEnvelopeBytes {
		n.count(telemetry.CounterClusterRunFetchErrors, 1)
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		return nil, false
	}
	res, err := DecodeResult(payload, resp.Header.Get(sumHeader))
	if err != nil {
		n.count(telemetry.CounterClusterRunFetchErrors, 1)
		n.count(telemetry.CounterClusterRunPeerMisses, 1)
		n.logf("cluster: fetched envelope for %.12s rejected: %v", keyID, err)
		return nil, false
	}
	n.count(telemetry.CounterClusterRunPeerHits, 1)
	return res, true
}

// FillRun implements core.RunPeer: push a freshly computed result to the
// key's ring owner (or store it directly when that is us). Best-effort —
// a failed fill only costs the cluster a future recompute.
func (n *Node) FillRun(key core.RunKey, res *interp.Result) {
	keyID := RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)
	payload, sum, err := EncodeResult(res)
	if err != nil {
		// Not wire-encodable (e.g. buffer return): release any pending
		// mark we hold so other nodes stop waiting on a fill that will
		// never come.
		n.runs.abandon(keyID)
		return
	}
	owner := n.ownerHealthy(RunKeyHash(keyID))
	if owner == n.self {
		n.runs.put(keyID, payload, sum)
		n.count(telemetry.CounterClusterRunFills, 1)
		return
	}
	env := runEnvelope{
		Fingerprint: key.Fingerprint, Workload: key.Workload,
		Entry: key.Entry, Watch: key.Watch,
		Sum: sum, Result: json.RawMessage(payload),
	}
	body, err := json.Marshal(env)
	if err != nil {
		return
	}
	p := n.peer(owner)
	if p == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.HTTPTimeout)
	defer cancel()
	resp, err := n.doRetry(ctx, p, http.MethodPost, "/v1/cluster/runs/"+keyID, body, "cluster:fill-run")
	if err != nil {
		n.logf("cluster: fill %.12s at %s failed: %v", keyID, owner, err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		n.count(telemetry.CounterClusterRunFills, 1)
	}
}
