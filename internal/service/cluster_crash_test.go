package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"psaflow/internal/cluster"
	"psaflow/internal/experiments"
	"psaflow/internal/faults"
	"psaflow/internal/telemetry"
)

// crashNode is one member of TestClusterCrashRecovery's cluster: a full
// service node over its own WAL, on a real listener whose address outlives
// the node (a restarted daemon comes back where its peers expect it).
type crashNode struct {
	id, addr string
	node     *cluster.Node
	s        *Server
	ts       *httptest.Server
	logs     *logCapture
}

func (n *crashNode) base() string { return "http://" + n.addr }

// bootCrashNode starts node id over dir on l. Flows are stubs; those of
// uninformed jobs park on pin (nil: they run through like the rest).
func bootCrashNode(t *testing.T, id, dir string, l net.Listener, peers map[string]string, pin chan struct{}) *crashNode {
	t.Helper()
	node, err := cluster.New(cluster.Config{
		Self: id, Peers: peers,
		Retry:        faults.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		PingInterval: 250 * time.Millisecond,
		FetchWait:    100 * time.Millisecond,
		// Placement by hash alone: the test steers jobs by tenant, and load
		// spill would move them as the victim's queue grows.
		LoadBound: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &crashNode{id: id, addr: l.Addr().String(), node: node, logs: &logCapture{}}
	n.s = New(Config{Workers: 1, QueueSize: 64, DataDir: dir, Cluster: node, Logf: n.logs.logf})
	n.s.runFlow = func(ctx context.Context, job *Job, rec *telemetry.Recorder) ([]experiments.DesignResult, error) {
		if pin != nil && job.Spec.Mode == "uninformed" {
			select {
			case <-pin:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return nil, nil
	}
	if err := n.s.Start(); err != nil {
		t.Fatalf("start node %s: %v", id, err)
	}
	n.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: n.s.Handler()}}
	n.ts.Start()
	return n
}

// TestClusterCrashRecovery is the 3-node crash gate scripts/crashtest.sh
// used to run against real processes, on the abandon harness of
// recover_test.go: the victim's worker is pinned, a tenant sweep spreads
// over the ring, the victim dies mid-sweep (listener closed, server
// abandoned without Drain — what a kill -9 leaves). The survivors must
// accept every later submission — a dead ring owner degrades placement to
// local execution, it never refuses a job — mark the victim down and
// finish their share; the victim, restarted over its own WAL at its old
// address, must requeue and finish everything it had acknowledged; the
// ring must heal. Zero jobs lost cluster-wide.
func TestClusterCrashRecovery(t *testing.T) {
	ids := []string{"ca", "cb", "cc"}
	listeners := make([]net.Listener, len(ids))
	peers := map[string]string{}
	for i, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], peers[id] = l, "http://"+l.Addr().String()
	}
	pin := make(chan struct{}) // never released: the victim's worker is busy when it dies
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := make([]*crashNode, len(ids))
	for i, id := range ids {
		nodes[i] = bootCrashNode(t, id, dirs[i], listeners[i], peers, pin)
	}
	ca, cb, victim := nodes[0], nodes[1], nodes[2]
	stop := func(n *crashNode) {
		n.ts.Close()
		if _, err := n.s.Drain(); err != nil {
			t.Errorf("drain %s: %v", n.id, err)
		}
	}
	defer stop(ca)
	defer stop(cb)
	// A tenant the ring places on the victim, and the spec whose flow parks.
	ring := []*cluster.Node{ca.node, cb.node, victim.node}
	ofVictim := tenantForOwner(t, ring, JobSpec{Bench: "nbody"}, "cc")
	pinSpec := JobSpec{Bench: "nbody", Mode: "uninformed", Tenant: ofVictim}

	// Pin the victim's single worker, then sweep tenants round-robin over
	// all three nodes until the ring has queued at least two behind the pin.
	pinned := submitOK(t, ca.base(), pinSpec)
	if !strings.HasPrefix(pinned.ID, "cc-") {
		t.Fatalf("pinning job landed at %q, want the victim cc", pinned.ID)
	}
	waitState(t, victim.base(), pinned.ID, 10*time.Second, StateRunning)
	acked := []string{pinned.ID}
	onVictim := 0
	for i := 0; i < 42 && (i < 9 || onVictim < 2); i++ {
		st := submitOK(t, nodes[i%3].base(), JobSpec{Bench: "nbody", Tenant: fmt.Sprintf("t%d", i)})
		acked = append(acked, st.ID)
		if strings.HasPrefix(st.ID, "cc-") {
			onVictim++
		}
	}
	if onVictim < 2 {
		t.Fatalf("the ring placed %d of 42 sweep jobs on the victim, want at least 2", onVictim)
	}
	// CRASH: no drain, no shutdown record, one job mid-flight and
	// onVictim acknowledged jobs queued behind it.
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	victim.node.Stop() // a dead process pings nobody

	// The ring still places this tenant on the dead node; the forward meets
	// a closed port and the job runs where it was submitted.
	st := submitOK(t, ca.base(), JobSpec{Bench: "nbody", Tenant: ofVictim})
	if !strings.HasPrefix(st.ID, "ca-") {
		t.Fatalf("job owned by the dead node was acknowledged as %q, want a local fallback on ca", st.ID)
	}
	acked = append(acked, st.ID)
	if c := fetchMetrics(t, ca.base()).Telemetry.Counters; c[telemetry.CounterClusterForwardFailed] < 1 || c[telemetry.CounterClusterForwardedLocal] < 1 {
		t.Fatalf("fallback not counted: %v", c)
	}
	// Survivors mark the victim down (self + one live peer) and keep taking
	// submissions for every tenant, none of them placed on the dead node.
	for _, n := range []*crashNode{ca, cb} {
		waitCond(t, n.id+" to mark the victim unhealthy", func() bool { return n.node.HealthyCount() == 2 })
	}
	for i := 0; i < 12; i++ {
		st := submitOK(t, nodes[i%2].base(), JobSpec{Bench: "nbody", Tenant: fmt.Sprintf("v%d", i)})
		if strings.HasPrefix(st.ID, "cc-") {
			t.Fatalf("job %s routed to the dead node", st.ID)
		}
		acked = append(acked, st.ID)
	}
	for _, id := range acked {
		if !strings.HasPrefix(id, "cc-") {
			waitState(t, cb.base(), id, 10*time.Second, StateDone)
		}
	}

	// Restart the victim over its own WAL, at its old address: recovery
	// must requeue every unfinished job it held — the pinned one and the
	// queued sweep jobs alike — and finish them.
	var l net.Listener
	waitCond(t, "the victim's address to be free again", func() bool {
		var err error
		l, err = net.Listen("tcp", victim.addr)
		return err == nil
	})
	victim = bootCrashNode(t, "cc", dirs[2], l, peers, nil)
	defer stop(victim)
	if got, want := victim.logs.take(), fmt.Sprintf("unclean shutdown detected: %d unfinished job(s)", onVictim+1); !strings.Contains(got, want) ||
		!strings.Contains(got, fmt.Sprintf("requeued %d job(s) from the durable store", onVictim+1)) {
		t.Errorf("restarted victim logged:\n%s\nwant %q and as many jobs requeued", got, want)
	}
	// The ring heals, and every acknowledged job cluster-wide reads back
	// done from a node that ran none of the victim's.
	waitCond(t, "the ring to heal", func() bool { return ca.node.HealthyCount() == 3 && cb.node.HealthyCount() == 3 })
	for _, id := range acked {
		waitState(t, ca.base(), id, 10*time.Second, StateDone)
	}
}
