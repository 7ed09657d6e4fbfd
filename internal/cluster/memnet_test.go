package cluster

// Peer faults as deterministic unit tests. memNet is an in-memory network:
// an http.RoundTripper that serves each node's registered mux directly —
// no listener, no port, no sleep — and applies per-link rules on the way:
// drop the request (always, or on a schedule drawn from a seeded
// faults.Injector, so a failing run replays from its seed), hold it until
// the test lets go, or cut the response off after its headers. The tests
// put it in the two http.Clients node.go builds; nothing outside _test.go
// files can.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"psaflow/internal/core"
	"psaflow/internal/faults"
)

type linkRule struct {
	down    bool             // partitioned: every request is dropped
	lossy   *faults.Injector // dropped when Fail(faults.IO, "na->nb <path>") says so
	hold    chan struct{}    // delivered only once closed (or never: the sender's timeout decides)
	cutBody bool             // the response fails after its headers
}

type memNet struct {
	mu    sync.Mutex
	muxes map[string]*http.ServeMux // by host: node "na" lives at http://na
	rules map[string]*linkRule      // by link, "na->nb"
	sent  map[string]int            // requests that set out, by "na->nb METHOD /path"
}

func newMemNet() *memNet {
	return &memNet{muxes: map[string]*http.ServeMux{}, rules: map[string]*linkRule{}, sent: map[string]int{}}
}

// join builds a node on the network; tweak, if any, adjusts its Config.
func (mn *memNet) join(t *testing.T, id string, ids []string, tweak func(*Config)) (*Node, *testSink) {
	t.Helper()
	peers := map[string]string{}
	for _, p := range ids {
		peers[p] = "http://" + p
	}
	cfg := Config{Self: id, Peers: peers, Retry: fastRetry, FetchWait: 100 * time.Millisecond, PingInterval: time.Hour}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := newTestSink()
	n.SetCounters(sink)
	n.client.Transport, n.streamClient.Transport = mn, mn
	mux := http.NewServeMux()
	n.Register(mux)
	mn.mu.Lock()
	mn.muxes[id] = mux
	mn.mu.Unlock()
	return n, sink
}

func (mn *memNet) rule(from, to string) *linkRule {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	link := from + "->" + to
	if mn.rules[link] == nil {
		mn.rules[link] = &linkRule{}
	}
	return mn.rules[link]
}

func (mn *memNet) count(key string) int {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.sent[key]
}

var errLinkDown = errors.New("memnet: connection refused")

// cutReader is a response body that dies on the wire.
type cutReader struct{}

func (cutReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (cutReader) Close() error             { return nil }

func (mn *memNet) RoundTrip(req *http.Request) (*http.Response, error) {
	from := req.Header.Get(nodeHeader) // every peer request names its sender in one of these
	if from == "" {
		from = req.Header.Get(ForwardedHeader) + req.Header.Get(ProxiedHeader)
	}
	to, path := req.URL.Host, req.URL.Path
	mn.mu.Lock()
	mux, rule := mn.muxes[to], mn.rules[from+"->"+to]
	mn.sent[fmt.Sprintf("%s->%s %s %s", from, to, req.Method, path)]++
	mn.mu.Unlock()
	if rule == nil {
		rule = &linkRule{}
	}
	if rule.down || mux == nil || rule.lossy.Fail(faults.IO, from+"->"+to+" "+path) != nil {
		return nil, errLinkDown
	}
	if rule.hold != nil {
		select {
		case <-rule.hold:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	in := httptest.NewRequest(req.Method, req.URL.String(), http.NoBody).WithContext(req.Context())
	if req.Body != nil {
		in.Body = req.Body
	}
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, in)
	resp := rec.Result()
	resp.Request = req
	if rule.cutBody {
		resp.Body = cutReader{}
	}
	return resp, nil
}

// TestPartitionDuringFetchRun: the link to the key's owner is down when
// the fetch goes out, and comes up with a cut body when it is retried — a
// miss each time, one fetch error each time, never an error to the caller,
// who computes locally.
func TestPartitionDuringFetchRun(t *testing.T) {
	mn := newMemNet()
	ids := []string{"na", "nb"}
	na, sa := mn.join(t, "na", ids, nil)
	nb, _ := mn.join(t, "nb", ids, nil)
	key := keyOwnedBy(t, na, "nb")
	nb.FillRun(key, sampleResult()) // the owner has the run: only the link can lose it

	mn.rule("na", "nb").down = true
	if _, ok := na.FetchRun(key); ok {
		t.Fatal("fetch across a partition hit")
	}
	if e, m := sa.get("cluster.runcache.fetch_errors"), sa.get("cluster.runcache.peer_misses"); e != 1 || m != 1 {
		t.Fatalf("partitioned fetch: %d fetch errors, %d misses, want one of each: %v", e, m, sa.m)
	}
	*mn.rule("na", "nb") = linkRule{cutBody: true}
	if _, ok := na.FetchRun(key); ok {
		t.Fatal("fetch whose response died after the headers hit")
	}
	if e := sa.get("cluster.runcache.fetch_errors"); e != 2 {
		t.Fatalf("cut response: %d fetch errors, want 2", e)
	}
	*mn.rule("na", "nb") = linkRule{}
	if res, ok := na.FetchRun(key); !ok || res.Steps != sampleResult().Steps {
		t.Fatal("fetch over the healed link missed")
	}
}

// TestLossyLinkReplaysFromSeed: the drop schedule is the injector's, so the
// same seed loses the same requests — a failing run can be replayed — and
// every drop is one counted fetch error, nothing else.
func TestLossyLinkReplaysFromSeed(t *testing.T) {
	run := func(seed int) (outcome string, dropped int64) {
		mn := newMemNet()
		ids := []string{"na", "nb"}
		na, sa := mn.join(t, "na", ids, nil)
		nb, _ := mn.join(t, "nb", ids, nil)
		inj, err := faults.ParseSpec(fmt.Sprintf("seed=%d,rate=0.4,kinds=io", seed))
		if err != nil {
			t.Fatal(err)
		}
		mn.rule("na", "nb").lossy = inj
		for fp := uint64(1); len(outcome) < 24; fp++ {
			// A peer that failed twice in a row is routed around; this test
			// is about the link, so its health is reset between requests.
			na.peer("nb").markOK(0, false)
			key := core.RunKey{Fingerprint: fp, Workload: "w", Entry: "main"}
			if na.ownerHealthy(RunKeyHash(RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch))) != "nb" {
				continue
			}
			nb.FillRun(key, sampleResult())
			if _, ok := na.FetchRun(key); ok {
				outcome += "h"
			} else {
				outcome += "m"
			}
		}
		if got := sa.get("cluster.runcache.fetch_errors"); got != inj.Injected()[faults.IO] {
			t.Errorf("seed %d: %d fetch errors for %d dropped requests", seed, got, inj.Injected()[faults.IO])
		}
		return outcome, inj.Injected()[faults.IO]
	}
	first, dropped := run(7)
	if dropped == 0 || int(dropped) == len(first) {
		t.Fatalf("rate 0.4 dropped %d of %d requests: the schedule is not being drawn", dropped, len(first))
	}
	if again, _ := run(7); again != first {
		t.Errorf("seed 7 replayed differently:\n%s\n%s", first, again)
	}
	if other, _ := run(8); other == first {
		t.Errorf("seeds 7 and 8 drew the same schedule %s", first)
	}
}

// TestClaimerAbandonedMidSingleflight: na claims a key at its owner nb and
// dies before filling it. A waiter degrades to a miss when its FetchWait
// runs out — it does not steal the claim — and once the pending mark
// expires on the run store's clock the next fetch claims the key afresh.
func TestClaimerAbandonedMidSingleflight(t *testing.T) {
	mn := newMemNet()
	ids := []string{"na", "nb"}
	na, _ := mn.join(t, "na", ids, nil)
	nb, sb := mn.join(t, "nb", ids, func(c *Config) { c.FetchWait = 20 * time.Millisecond })
	clock := time.Unix(1000, 0)
	nb.now = func() time.Time { return clock }
	key := keyOwnedBy(t, na, "nb")
	keyID := RunKeyID(key.Fingerprint, key.Workload, key.Entry, key.Watch)

	if _, ok := na.FetchRun(key); ok { // the claim; na is never heard of again
		t.Fatal("fetch of an unfilled key hit")
	}
	if _, ok := nb.FetchRun(key); ok {
		t.Fatal("waiter hit a key nobody filled")
	}
	if m := sb.get("cluster.runcache.peer_misses"); m != 1 {
		t.Fatalf("waiter that ran out of FetchWait: %d misses, want 1", m)
	}
	if _, _, _, mine, _ := nb.runs.fetch(keyID, 0, nb.now); mine {
		t.Fatal("the dead claimer's mark was stolen before it expired")
	}
	clock = clock.Add(pendingTTL + time.Second)
	if _, _, _, mine, _ := nb.runs.fetch(keyID, 0, nb.now); !mine {
		t.Fatal("the expired mark was not claimed afresh: one dead peer wedged the key")
	}
}

// TestAsymmetricHealthViews: na cannot reach nb and has marked it down; nb
// reaches na fine. na places nothing on nb and sends it nothing; nb still
// places na's keys on na, and what it forwards carries the one-hop marker
// that makes the receiver handle it locally — so no request can loop.
func TestAsymmetricHealthViews(t *testing.T) {
	mn := newMemNet()
	ids := []string{"na", "nb"}
	na, _ := mn.join(t, "na", ids, nil)
	nb, _ := mn.join(t, "nb", ids, nil)
	var forwardedBy []string
	mn.muxes["na"].HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		forwardedBy = append(forwardedBy, r.Header.Get(ForwardedHeader))
		w.WriteHeader(http.StatusAccepted)
	})
	mn.rule("na", "nb").down = true
	for i := 0; i < unhealthyAfter; i++ {
		na.pingAll()
	}
	nb.pingAll()
	if na.Healthy("nb") || !nb.Healthy("na") {
		t.Fatalf("views: na sees nb healthy=%t (want false), nb sees na healthy=%t (want true)", na.Healthy("nb"), nb.Healthy("na"))
	}
	var onNA int
	for fp := uint64(1); fp <= 200; fp++ {
		if owner := na.OwnerForJob("acme", fp); owner != "na" {
			t.Fatalf("na placed a job on %s, which it cannot reach", owner)
		}
		if nb.OwnerForJob("acme", fp) == "na" {
			onNA++
		}
	}
	if onNA == 0 {
		t.Fatal("nb placed none of 200 jobs on na, which it can reach")
	}
	resp, err := nb.ForwardSubmit(context.Background(), "na", []byte(`{"bench":"nbody"}`))
	if err != nil {
		t.Fatalf("forward nb->na: %v", err)
	}
	resp.Body.Close()
	if len(forwardedBy) != 1 || forwardedBy[0] != "nb" {
		t.Fatalf("na received forwards marked %q, want one, marked nb", forwardedBy)
	}
	if n := mn.count("na->nb POST /v1/jobs"); n != 0 {
		t.Fatalf("na sent %d submissions to the peer it had marked down, want none", n)
	}
}

// TestForwardSubmitHeldPastTimeout: the owner accepts the connection and
// says nothing. The forward gives up at the HTTP timeout after exactly one
// attempt — a submit is not idempotent — and counts against the peer; the
// caller runs the job locally.
func TestForwardSubmitHeldPastTimeout(t *testing.T) {
	mn := newMemNet()
	ids := []string{"na", "nb"}
	na, _ := mn.join(t, "na", ids, func(c *Config) {
		c.FetchWait, c.HTTPTimeout = 10*time.Millisecond, 50*time.Millisecond
		c.Retry = faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	})
	mn.join(t, "nb", ids, nil)
	mn.rule("na", "nb").hold = make(chan struct{}) // never closed
	resp, err := na.ForwardSubmit(context.Background(), "nb", []byte(`{"bench":"nbody"}`))
	if err == nil {
		resp.Body.Close()
		t.Fatal("a forward that was never answered succeeded")
	}
	if n := mn.count("na->nb POST /v1/jobs"); n != 1 {
		t.Fatalf("held forward was attempted %d times, want exactly 1", n)
	}
	if info := na.peer("nb").snapshot(); info.LastError == "" {
		t.Fatalf("held forward did not count against the peer: %+v", info)
	}
}
