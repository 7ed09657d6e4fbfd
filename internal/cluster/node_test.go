package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"psaflow/internal/core"
	"psaflow/internal/faults"
)

func TestRunStoreSingleflight(t *testing.T) {
	rs := newRunStore(8)
	key := RunKeyID(1, "w", "main", "")

	// First fetch claims the computation.
	_, _, hit, mine, waited := rs.fetch(key, 0, time.Now)
	if hit || !mine || waited {
		t.Fatalf("first fetch: hit=%v mine=%v waited=%v, want miss+mine", hit, mine, waited)
	}
	// Second fetch with no wait budget: miss, not mine — the claim stands.
	_, _, hit, mine, _ = rs.fetch(key, 0, time.Now)
	if hit || mine {
		t.Fatalf("second fetch: hit=%v mine=%v, want plain miss", hit, mine)
	}

	// A waiting fetch blocks until the fill lands.
	var wg sync.WaitGroup
	wg.Add(1)
	var gotPayload []byte
	var gotWaited bool
	clock, read := markRead()
	go func() {
		defer wg.Done()
		gotPayload, _, hit, _, gotWaited = rs.fetch(key, 5*time.Second, clock)
	}()
	<-read
	rs.put(key, []byte("payload"), "sum")
	wg.Wait()
	if !hit || !gotWaited || string(gotPayload) != "payload" {
		t.Fatalf("waiting fetch: hit=%v waited=%v payload=%q", hit, gotWaited, gotPayload)
	}

	// Filled entries hit immediately.
	p, s, hit, _, waited := rs.fetch(key, 0, time.Now)
	if !hit || waited || string(p) != "payload" || s != "sum" {
		t.Fatalf("post-fill fetch: hit=%v waited=%v", hit, waited)
	}

	// First fill wins.
	rs.put(key, []byte("other"), "othersum")
	p, _, _, _, _ = rs.fetch(key, 0, time.Now)
	if string(p) != "payload" {
		t.Fatalf("duplicate fill replaced the entry: %q", p)
	}
}

// markRead returns a clock for runStore.fetch and a channel that hears of
// its first reading. fetch reads the clock to check a pending mark's expiry
// inside the critical section in which it takes the mark's channel, so a
// fill that comes after the reading finds the fetch waiting on it — what a
// sleep "long enough for the fetch to park" used to approximate.
func markRead() (clock func() time.Time, read <-chan struct{}) {
	c := make(chan struct{}, 1)
	return func() time.Time {
		select {
		case c <- struct{}{}:
		default:
		}
		return time.Now()
	}, c
}

func TestRunStoreWaitTimeout(t *testing.T) {
	rs := newRunStore(8)
	key := RunKeyID(2, "w", "main", "")
	if _, _, _, mine, _ := rs.fetch(key, 0, time.Now); !mine {
		t.Fatal("first fetch did not claim the key")
	}
	start := time.Now()
	_, _, hit, mine, waited := rs.fetch(key, 30*time.Millisecond, time.Now)
	if hit || mine || !waited {
		t.Fatalf("timed-out wait: hit=%v mine=%v waited=%v", hit, mine, waited)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("wait returned before the budget elapsed")
	}
}

func TestRunStoreAbandon(t *testing.T) {
	rs := newRunStore(8)
	key := RunKeyID(3, "w", "main", "")
	if _, _, _, mine, _ := rs.fetch(key, 0, time.Now); !mine {
		t.Fatal("first fetch did not claim the key")
	}
	rs.abandon(key)
	// The claim is gone: the next fetch re-claims instead of waiting.
	if _, _, _, mine, _ := rs.fetch(key, 0, time.Now); !mine {
		t.Fatal("fetch after abandon did not re-claim the key")
	}
}

func TestRunStorePendingExpiry(t *testing.T) {
	rs := newRunStore(8)
	key := RunKeyID(4, "w", "main", "")
	base := time.Unix(1000, 0)
	now := base
	clock := func() time.Time { return now }
	if _, _, _, mine, _ := rs.fetch(key, 0, clock); !mine {
		t.Fatal("first fetch did not claim the key")
	}
	now = base.Add(pendingTTL / 2)
	if _, _, _, mine, _ := rs.fetch(key, 0, clock); mine {
		t.Fatal("unexpired pending mark was stolen")
	}
	now = base.Add(pendingTTL + time.Second)
	if _, _, _, mine, _ := rs.fetch(key, 0, clock); !mine {
		t.Fatal("expired pending mark was not re-claimed")
	}
}

func TestRunStoreEviction(t *testing.T) {
	rs := newRunStore(3)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = RunKeyID(uint64(10+i), "w", "main", "")
		rs.put(keys[i], []byte(fmt.Sprintf("p%d", i)), "s")
	}
	entries, evicted := rs.stats()
	if entries != 3 || evicted != 2 {
		t.Fatalf("entries=%d evicted=%d, want 3 and 2", entries, evicted)
	}
	// Oldest two are gone, newest three remain.
	for i, key := range keys {
		_, _, hit, _, _ := rs.fetch(key, 0, time.Now)
		if want := i >= 2; hit != want {
			t.Errorf("key %d: hit=%v want %v", i, hit, want)
		}
	}
}

// fastRetry keeps peer-failure tests quick: one attempt, no backoff.
var fastRetry = faults.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}

// testSink collects counters for assertions.
type testSink struct {
	mu sync.Mutex
	m  map[string]int64
}

func newTestSink() *testSink { return &testSink{m: map[string]int64{}} }

func (s *testSink) Add(name string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] += delta
}

func (s *testSink) get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// newPair builds a two-node cluster ("na", "nb") over httptest servers.
func newPair(t *testing.T) (na, nb *Node, sa, sb *testSink) {
	t.Helper()
	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	srvA, srvB := httptest.NewServer(muxA), httptest.NewServer(muxB)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	peers := map[string]string{"na": srvA.URL, "nb": srvB.URL}
	var err error
	na, err = New(Config{Self: "na", Peers: peers, Retry: fastRetry, FetchWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nb, err = New(Config{Self: "nb", Peers: peers, Retry: fastRetry, FetchWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb = newTestSink(), newTestSink()
	na.SetCounters(sa)
	nb.SetCounters(sb)
	na.Register(muxA)
	nb.Register(muxB)
	return na, nb, sa, sb
}

// keyOwnedBy scans fingerprints until the derived run key's ring owner is
// the wanted node, so cross-node tests exercise a real remote hop.
func keyOwnedBy(t *testing.T, n *Node, owner string) core.RunKey {
	t.Helper()
	for fp := uint64(1); fp < 10000; fp++ {
		key := core.RunKey{Fingerprint: fp, Workload: "w", Entry: "main"}
		id := RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)
		if n.ownerHealthy(RunKeyHash(id)) == owner {
			return key
		}
	}
	t.Fatal("no fingerprint hashes to the wanted owner")
	return core.RunKey{}
}

func TestTwoNodeRunFetchFill(t *testing.T) {
	na, nb, sa, sb := newPair(t)
	key := keyOwnedBy(t, na, "nb")

	// Remote miss claims the key at the owner for this node.
	if _, ok := na.FetchRun(key); ok {
		t.Fatal("fetch of an unfilled key hit")
	}
	if sa.get("cluster.runcache.peer_misses") != 1 {
		t.Fatalf("miss not counted: %v", sa.m)
	}

	res := sampleResult()
	na.FillRun(key, res)
	if sa.get("cluster.runcache.fills") != 1 {
		t.Fatalf("fill not counted: %v", sa.m)
	}

	// Both the remote requester and the owner now hit.
	got, ok := na.FetchRun(key)
	if !ok || got.Steps != res.Steps {
		t.Fatalf("remote fetch after fill: ok=%v", ok)
	}
	if sa.get("cluster.runcache.peer_hits") != 1 {
		t.Fatalf("remote hit not counted: %v", sa.m)
	}
	got, ok = nb.FetchRun(key)
	if !ok || got.Steps != res.Steps || got.Ret.F != res.Ret.F {
		t.Fatalf("owner-side fetch after fill: ok=%v", ok)
	}
	if sb.get("cluster.runcache.peer_hits") != 1 {
		t.Fatalf("owner hit not counted: %v", sb.m)
	}
}

func TestTwoNodeFetchWaitsForFill(t *testing.T) {
	na, nb, _, _ := newPair(t)
	key := keyOwnedBy(t, na, "nb")

	// nb (the owner) claims the key locally, as if computing it.
	if _, ok := nb.FetchRun(key); ok {
		t.Fatal("owner claim unexpectedly hit")
	}
	// na's fetch arrives while the key is pending: it must block for the
	// fill and hit, not recompute.
	done := make(chan bool, 1)
	clock, read := markRead()
	nb.now = clock
	go func() {
		_, ok := na.FetchRun(key)
		done <- ok
	}()
	<-read
	nb.FillRun(key, sampleResult())
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiting fetch missed after the fill landed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting fetch never returned")
	}
}

func TestFillRejectedAtOwner(t *testing.T) {
	na, nb, _, sb := newPair(t)
	key := keyOwnedBy(t, na, "nb")
	keyID := RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)

	// POST a fill whose body hashes to a different key: the owner must
	// refuse it and count the reject.
	payload, sum, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	env := fmt.Sprintf(`{"fingerprint":%d,"workload":"other","entry":"main","watch":"","sum":"%s","result":%s}`,
		key.Fingerprint, sum, payload)
	url, _ := na.PeerURL("nb")
	resp, err := http.Post(url+"/v1/cluster/runs/"+keyID, "application/json", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fill accepted: status %d", resp.StatusCode)
	}
	if sb.get("cluster.runcache.fill_rejects") != 1 {
		t.Fatalf("reject not counted: %v", sb.m)
	}
	if _, ok := nb.FetchRun(key); ok {
		t.Fatal("rejected fill is fetchable")
	}
}

func TestPeerFailureDegradesToLocal(t *testing.T) {
	// nb's server is already gone: every cross-node call must degrade to a
	// miss or a local store, never an error, and nb must go unhealthy so
	// ownership rehashes onto na.
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	deadURL := srv.URL
	srv.Close()
	na, err := New(Config{
		Self:  "na",
		Peers: map[string]string{"na": "http://ignored", "nb": deadURL},
		Retry: fastRetry, FetchWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	na.SetCounters(newTestSink())
	key := keyOwnedBy(t, na, "nb")

	if _, ok := na.FetchRun(key); ok {
		t.Fatal("fetch from a dead peer hit")
	}
	na.FillRun(key, sampleResult()) // must not panic or error
	if na.Healthy("nb") {
		t.Fatal("nb still healthy after two failed contacts")
	}
	if na.HealthyCount() != 1 {
		t.Fatalf("healthy count %d, want 1", na.HealthyCount())
	}

	// Ownership has rehashed onto na: the same key now stores and serves
	// locally, so the cache works cluster-degraded.
	if owner := na.ownerHealthy(RunKeyHash(RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch))); owner != "na" {
		t.Fatalf("dead peer still owns the key (owner %q)", owner)
	}
	if _, ok := na.FetchRun(key); ok {
		t.Fatal("fetch hit before any local fill")
	}
	na.FillRun(key, sampleResult())
	if _, ok := na.FetchRun(key); !ok {
		t.Fatal("local degraded cache did not serve the fill")
	}
}

func TestOwnerForJobFallsBackToSelf(t *testing.T) {
	na, err := New(Config{Self: "na", Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	if owner := na.OwnerForJob("acme", 42); owner != "na" {
		t.Fatalf("single-node owner %q, want self", owner)
	}
}
