package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"psaflow/internal/cluster"
	"psaflow/internal/faults"
	"psaflow/internal/telemetry"
)

// testCluster is n full service nodes in-process: each Server gets its
// own cluster.Node, all muxes are served over httptest, and the peer
// tables are wired after the listeners exist (the same listen-then-join
// order a real deployment has).
type testCluster struct {
	servers   []*Server
	listeners []*httptest.Server
	bases     []string
	nodes     []*cluster.Node
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	ids := []string{"ca", "cb", "cc", "cd", "ce"}[:n]
	tc := &testCluster{
		servers:   make([]*Server, n),
		listeners: make([]*httptest.Server, n),
		bases:     make([]string, n),
		nodes:     make([]*cluster.Node, n),
	}
	for i := range tc.nodes {
		node, err := cluster.New(cluster.Config{
			Self:         ids[i],
			Retry:        faults.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			PingInterval: 100 * time.Millisecond,
			FetchWait:    500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = node
		tc.servers[i] = New(Config{Workers: 2, QueueSize: 32, Cluster: node})
		ts := httptest.NewServer(tc.servers[i].Handler())
		t.Cleanup(ts.Close)
		tc.listeners[i] = ts
		tc.bases[i] = ts.URL
	}
	for i, node := range tc.nodes {
		peers := make(map[string]string)
		for j, id := range ids {
			if j != i {
				peers[id] = tc.bases[j]
			}
		}
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range tc.servers {
		if err := s.Start(); err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		srv := s
		t.Cleanup(func() { srv.Drain() })
	}
	return tc
}

// tenantForOwner searches tenant names until the ring places (tenant, fp)
// on the wanted node — how the tests steer a submission to a chosen home.
func tenantForOwner(t *testing.T, nodes []*cluster.Node, spec JobSpec, owner string) string {
	t.Helper()
	b, prog, err := spec.validate()
	if err != nil {
		t.Fatal(err)
	}
	fp := programFingerprint(b, prog)
	for i := 0; i < 100000; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if nodes[0].OwnerForJob(tenant, fp) == owner {
			return tenant
		}
	}
	t.Fatalf("no tenant maps to node %s", owner)
	return ""
}

func fetchClusterMetrics(t *testing.T, base string) cluster.Stats {
	t.Helper()
	code, body := getJSON(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var m struct {
		Service struct {
			Cluster *cluster.Stats `json:"cluster"`
		} `json:"service"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Service.Cluster == nil {
		t.Fatalf("metrics missing cluster block: %s", body)
	}
	return *m.Service.Cluster
}

// TestClusterForwardedSubmit submits to a node that does not own the
// job's (tenant, fingerprint) slot and follows it through the forward:
// the job ID names the owner, status polls against the submit node proxy
// across, and a third uninvolved node can read the result too.
func TestClusterForwardedSubmit(t *testing.T) {
	tc := newTestCluster(t, 3)
	bases, nodes := tc.bases, tc.nodes
	spec := JobSpec{Bench: "adpredictor"}
	spec.Tenant = tenantForOwner(t, nodes, spec, "cb")

	st := submitOK(t, bases[0], spec)
	if !strings.HasPrefix(st.ID, "cb-") {
		t.Fatalf("job ID %q should carry the owner prefix cb-", st.ID)
	}
	if c := fetchMetrics(t, bases[0]).Telemetry.Counters; c[telemetry.CounterClusterForwarded] < 1 {
		t.Fatalf("submit node counted no forwards: %v", c)
	}

	// Polling the submit node proxies each status read to the owner.
	waitState(t, bases[0], st.ID, 30*time.Second, StateDone)
	if c := fetchMetrics(t, bases[0]).Telemetry.Counters; c[telemetry.CounterClusterProxied] < 1 {
		t.Fatalf("submit node counted no proxied requests: %v", c)
	}
	// Any node serves the result, including one that saw neither the
	// submit nor the run.
	if res := jobResult(t, bases[2], st.ID); len(res.Designs) == 0 {
		t.Fatalf("third-node result has no designs: %+v", res)
	}
}

// TestClusterHealthz checks the peer view the small-fix satellite added:
// ring membership, per-peer health, and the healthy-node gauge.
func TestClusterHealthz(t *testing.T) {
	tc := newTestCluster(t, 3)
	bases := tc.bases
	code, body := getJSON(t, bases[1]+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h struct {
		Node    string             `json:"node"`
		Ring    []string           `json:"ring"`
		Peers   []cluster.PeerInfo `json:"peers"`
		Healthy int                `json:"cluster_peers_healthy"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Node != "cb" || len(h.Ring) != 3 || len(h.Peers) != 3 || h.Healthy != 3 {
		t.Fatalf("healthz cluster view: %s", body)
	}
	for _, p := range h.Peers {
		if p.ID == "cb" && !p.Self {
			t.Errorf("own entry not marked self: %+v", p)
		}
	}
}

// TestClusterCrossNodeCacheHit runs the same program on two different
// nodes (distinct tenants steer placement apart) and asserts the second
// node served its profiled runs from the cluster cache instead of
// recomputing — the distributed read-through path end to end.
func TestClusterCrossNodeCacheHit(t *testing.T) {
	tc := newTestCluster(t, 3)
	bases, nodes := tc.bases, tc.nodes
	spec := JobSpec{Bench: "adpredictor"}

	first := spec
	first.Tenant = tenantForOwner(t, nodes, spec, "ca")
	st1 := submitOK(t, bases[0], first)
	waitState(t, bases[0], st1.ID, 30*time.Second, StateDone)

	second := spec
	second.Tenant = tenantForOwner(t, nodes, spec, "cb")
	st2 := submitOK(t, bases[1], second)
	waitState(t, bases[1], st2.ID, 30*time.Second, StateDone)

	if c := fetchMetrics(t, bases[1]).Telemetry.Counters; c[telemetry.CounterClusterRunPeerHits] < 1 {
		t.Fatalf("second node recomputed instead of hitting the cluster cache: %v", c)
	}
	var envelopes int
	for _, base := range bases {
		envelopes += fetchClusterMetrics(t, base).RunEntries
	}
	if envelopes < 1 {
		t.Fatalf("no node holds a filled cluster-cache envelope")
	}
}

// TestClusterDeterminism is the differential acceptance check: one spec
// executed three ways — plain single-node compute, a forwarded submit,
// and a run served through a peer-cache fill — must produce byte-identical
// designs.
func TestClusterDeterminism(t *testing.T) {
	spec := JobSpec{Bench: "adpredictor", Mode: "informed"}

	// Baseline: an uncluttered single node.
	solo, soloTS := newTestServer(t, Config{Workers: 1, QueueSize: 8})
	if err := solo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { solo.Drain() })
	stSolo := submitOK(t, soloTS.URL, spec)
	waitState(t, soloTS.URL, stSolo.ID, 30*time.Second, StateDone)
	want, err := json.Marshal(jobResult(t, soloTS.URL, stSolo.ID).Designs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobResult(t, soloTS.URL, stSolo.ID).Designs) == 0 {
		t.Fatal("baseline produced no designs")
	}

	tc := newTestCluster(t, 3)
	bases, nodes := tc.bases, tc.nodes

	// Forwarded: submitted at ca, owned and run by cc.
	fwd := spec
	fwd.Tenant = tenantForOwner(t, nodes, spec, "cc")
	stFwd := submitOK(t, bases[0], fwd)
	if !strings.HasPrefix(stFwd.ID, "cc-") {
		t.Fatalf("forwarded job landed at %q", stFwd.ID)
	}
	waitState(t, bases[0], stFwd.ID, 30*time.Second, StateDone)
	if got, _ := json.Marshal(jobResult(t, bases[0], stFwd.ID).Designs); string(got) != string(want) {
		t.Errorf("forwarded designs differ:\n got %s\nwant %s", got, want)
	}

	// Peer-cache: the same program on a different node — its profiled runs
	// arrive through the cluster cache cc's run filled.
	cached := spec
	cached.Tenant = tenantForOwner(t, nodes, spec, "ca")
	stC := submitOK(t, bases[0], cached)
	waitState(t, bases[0], stC.ID, 30*time.Second, StateDone)
	if got, _ := json.Marshal(jobResult(t, bases[0], stC.ID).Designs); string(got) != string(want) {
		t.Errorf("peer-cache designs differ:\n got %s\nwant %s", got, want)
	}
}

// TestClusterPeerLossDegrades kills a node and checks the survivors: a
// submission owned by the dead node falls back to running locally (a
// forward failure is a placement degradation, never a job failure), and
// health reporting shows the loss.
func TestClusterPeerLossDegrades(t *testing.T) {
	tc := newTestCluster(t, 3)
	bases, nodes := tc.bases, tc.nodes
	spec := JobSpec{Bench: "adpredictor"}
	spec.Tenant = tenantForOwner(t, nodes, spec, "cc")

	// Take cc down hard: stop its workers, then close the listener so its
	// peers see connection refused (httptest Close is idempotent; the
	// harness cleanup becomes a no-op).
	tc.servers[2].Drain()
	tc.listeners[2].Close()

	// A job whose ring owner is the dead node must still run: the forward
	// fails over to local execution on the submit node.
	st := submitOK(t, bases[0], spec)
	if !strings.HasPrefix(st.ID, "ca-") {
		t.Fatalf("fallback job should run on the submit node, got %q", st.ID)
	}
	final := waitState(t, bases[0], st.ID, 30*time.Second, StateDone)
	if final.State != StateDone {
		t.Fatalf("fallback job: %+v", final)
	}
	c := fetchMetrics(t, bases[0]).Telemetry.Counters
	if c[telemetry.CounterClusterForwardFailed] < 1 || c[telemetry.CounterClusterForwardedLocal] < 1 {
		t.Fatalf("fallback not counted: %v", c)
	}

	// Health converges: after a couple of failed pings the survivors mark
	// cc unhealthy and the gauge drops to 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !tc.nodes[0].Healthy("cc") && tc.nodes[0].HealthyCount() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never marked cc unhealthy (healthy=%d)", tc.nodes[0].HealthyCount())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// With cc out of the healthy set, new jobs for its slots rehash onto
	// survivors and submit cleanly.
	st2 := submitOK(t, bases[1], spec)
	waitState(t, bases[1], st2.ID, 30*time.Second, StateDone)
}
