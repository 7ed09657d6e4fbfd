package cluster

import (
	"sync"
	"time"
)

// runStore is the owner-side half of the distributed run cache: the
// envelopes this node stores for the slice of the keyspace the ring
// assigns it, plus the pending-entry machinery that gives the cluster
// its singleflight property. The first fetch that misses marks the key
// pending and is told to compute; fetches arriving while the key is
// pending block (up to the caller's wait budget) for the fill instead
// of re-profiling the same program on another node. A pending mark left
// behind by a crashed requester expires, so one dead peer can only
// delay a key once, never wedge it.
type runStore struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*storedRun
	order   []string // insertion order, for FIFO eviction past cap
	pending map[string]*pendingRun
	evicted int64
}

// storedRun is one cached fill: the wire payload and its checksum,
// served verbatim to fetchers (who re-verify the checksum themselves).
type storedRun struct {
	payload []byte
	sum     string
}

type pendingRun struct {
	ch      chan struct{} // closed on fill
	expires time.Time
}

// runStoreCap bounds the per-node envelope store; profiled-run
// payloads are small (KBs) so this keeps the worst case in the tens of
// MBs.
const runStoreCap = 4096

// pendingTTL bounds how long a key stays pending without a fill before
// the next fetch is allowed to recompute.
const pendingTTL = 30 * time.Second

func newRunStore(capacity int) *runStore {
	return &runStore{
		cap:     capacity,
		entries: make(map[string]*storedRun),
		pending: make(map[string]*pendingRun),
	}
}

// fetch looks the key up. Outcomes:
//   - payload, sum, "hit": the entry exists (possibly after waiting out
//     an in-flight computation elsewhere — waited reports that).
//   - "miss" with mine=true: the key is now pending under this caller,
//     who must compute and fill (or let the mark expire).
//   - "miss" with mine=false: the caller waited on someone else's
//     pending computation and timed out; compute locally, do not fill
//     ownership — the fill from the original requester may still land.
func (rs *runStore) fetch(keyID string, wait time.Duration, now func() time.Time) (payload []byte, sum string, hit, mine, waited bool) {
	rs.mu.Lock()
	if e := rs.entries[keyID]; e != nil {
		rs.mu.Unlock()
		return e.payload, e.sum, true, false, false
	}
	p := rs.pending[keyID]
	if p == nil || now().After(p.expires) {
		rs.pending[keyID] = &pendingRun{ch: make(chan struct{}), expires: now().Add(pendingTTL)}
		rs.mu.Unlock()
		return nil, "", false, true, false
	}
	if wait <= 0 {
		rs.mu.Unlock()
		return nil, "", false, false, false
	}
	ch := p.ch
	rs.mu.Unlock()

	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if e := rs.entries[keyID]; e != nil {
		return e.payload, e.sum, true, false, true
	}
	return nil, "", false, false, true
}

// put stores a verified fill and wakes every fetch waiting on the key.
func (rs *runStore) put(keyID string, payload []byte, sum string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if p := rs.pending[keyID]; p != nil {
		close(p.ch)
		delete(rs.pending, keyID)
	}
	if _, exists := rs.entries[keyID]; exists {
		return // first fill wins; duplicates carry identical bytes anyway
	}
	rs.entries[keyID] = &storedRun{payload: payload, sum: sum}
	rs.order = append(rs.order, keyID)
	for len(rs.entries) > rs.cap && len(rs.order) > 0 {
		oldest := rs.order[0]
		rs.order = rs.order[1:]
		if _, ok := rs.entries[oldest]; ok {
			delete(rs.entries, oldest)
			rs.evicted++
		}
	}
}

// abandon clears a pending mark this node created but could not fill
// (encode failure, failed run), letting the next fetch recompute
// immediately instead of waiting out the TTL.
func (rs *runStore) abandon(keyID string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if p := rs.pending[keyID]; p != nil {
		close(p.ch)
		delete(rs.pending, keyID)
	}
}

// stats returns entry count and cumulative evictions.
func (rs *runStore) stats() (entries int, evicted int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.entries), rs.evicted
}
