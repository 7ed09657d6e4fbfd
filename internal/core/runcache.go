package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"psaflow/internal/interp"
)

// The profiled-run cache. The target-independent analyses (tindep.go in
// internal/tasks) execute the same program on the same workload up to five
// times per branch path — hotspot identification, pointer analysis,
// data-in/out, trip counts, dependence re-verification — and sibling paths
// forked at a branch point repeat the identical runs on identical program
// copies. RunCache memoizes those executions on the Context, keyed by a
// deterministic AST fingerprint (minic.Fingerprint) plus workload
// identity, so an unchanged program runs once and every other consumer
// reuses the profiled interp.Result. Transform rewrites change the
// fingerprint, invalidating automatically.

// RunKey identifies one profiled interpreter execution.
type RunKey struct {
	// Fingerprint is minic.Fingerprint of the program that would run.
	Fingerprint uint64
	// Workload names the workload supplying the entry arguments.
	Workload string
	// Entry is the entry function name.
	Entry string
	// Watch is the watched function. interp.Run reads an empty Watch as
	// "watch the hotspot candidates"; the key never holds it empty:
	// tasks.profiledRun keys that run under the entry function's name,
	// the key cluster peers and probes derive too.
	Watch string
}

// errRunPanicked is what a caller gets whose Do was waiting on another
// caller's run of the same key when that run panicked.
var errRunPanicked = errors.New("core: profiled run panicked in a concurrent caller")

type runEntry struct {
	once sync.Once
	res  *interp.Result
	err  error
	// key and next thread the entry onto its cache's insertion-order list.
	key  RunKey
	next *runEntry
}

// RunPeer is the distributed read-through hook (implemented by
// cluster.Node). On a local miss the cache asks the peer layer before
// computing, and publishes successful computations back. Both calls are
// best-effort by contract: a Fetch that cannot reach its peer reports a
// miss, a failed Fill is dropped — peer loss degrades the cache to
// per-node behaviour, it never surfaces as an error.
type RunPeer interface {
	// FetchRun returns the cluster's cached result for key, if any node
	// holds one. It may block briefly (bounded by the peer layer's wait
	// budget) when another node is computing the same key right now.
	FetchRun(key RunKey) (*interp.Result, bool)
	// FillRun publishes a locally computed result for key.
	FillRun(key RunKey, res *interp.Result)
}

// RunCache memoizes profiled interpreter runs across the dynamic analyses
// of one flow, or a whole experiment sweep. It is safe for concurrent use:
// branch paths forked under Context.Parallel share one cache, and a
// per-key sync.Once collapses concurrent first requests into a single
// execution (singleflight), so no run is ever duplicated by a race.
// Cached Results are shared between consumers and must be treated as
// read-only, which every bundled task does.
type RunCache struct {
	mu      sync.Mutex
	entries map[RunKey]*runEntry
	// oldest … newest is the last runCacheCap entries inserted, in order:
	// inserting one more ages the oldest out (FIFO, as cluster.runStore
	// bounds its envelopes). Ageing out, like Forget, only deletes the map
	// slot — callers already inside the entry's Once finish on the
	// *runEntry they hold, and the key's next caller runs again.
	oldest, newest *runEntry
	listed         int
	peer           RunPeer // nil on a single-node cache
	hits           atomic.Int64
	misses         atomic.Int64
}

// runCacheCap bounds the cache: an entry keeps a run's profile, ≈ 2.4 KB on
// the bundled applications, so a daemon that has seen a million distinct
// programs holds ≈ 10 MB of them, not ≈ 6 GB.
const runCacheCap = 4096

// SetPeer wires the distributed read-through hook. Call before the
// cache is shared (the serving layer does it at construction).
func (c *RunCache) SetPeer(p RunPeer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.peer = p
	c.mu.Unlock()
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{entries: make(map[RunKey]*runEntry)}
}

// Do returns the memoized result for key, calling run — exactly once per
// key, even under concurrency — to produce it on first request. hit
// reports whether this call avoided an execution. Errors are cached too:
// the interpreter is deterministic, so a failing program fails identically
// on re-execution. A nil cache always executes.
func (c *RunCache) Do(key RunKey, run func() (*interp.Result, error)) (res *interp.Result, err error, hit bool) {
	if c == nil {
		res, err = run()
		return res, err, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &runEntry{key: key}
		c.entries[key] = e
		c.enlistLocked(e)
	}
	peer := c.peer
	c.mu.Unlock()
	executed, fromPeer := false, false
	e.once.Do(func() {
		// A run that panics spends the Once with nothing in the entry.
		// Drop the entry before the panic propagates, so the next caller
		// of the key runs again, and leave an error for callers already
		// waiting on this Once, or both would be handed (nil, nil) as a hit.
		defer func() {
			if !executed && !fromPeer {
				e.err = errRunPanicked
				c.Forget(key)
			}
		}()
		// Local miss: ask the cluster before computing. The peer call is
		// inside the singleflight on purpose — concurrent local callers
		// collapse to one fetch, exactly as they collapse to one run.
		if peer != nil {
			if res, ok := peer.FetchRun(key); ok {
				e.res = res
				fromPeer = true
				return
			}
		}
		e.res, e.err = run()
		executed = true
		if peer != nil && e.err == nil {
			peer.FillRun(key, e.res)
		}
	})
	if executed {
		c.misses.Add(1)
		return e.res, e.err, false
	}
	c.hits.Add(1)
	return e.res, e.err, true
}

// enlistLocked appends e to the insertion-order list and, past runCacheCap,
// ages the oldest entry out — unless Forget already dropped it, or dropped
// it and the key has a newer entry since, which stays.
func (c *RunCache) enlistLocked(e *runEntry) {
	if c.newest == nil {
		c.oldest = e
	} else {
		c.newest.next = e
	}
	c.newest = e
	if c.listed++; c.listed > runCacheCap {
		old := c.oldest
		c.oldest = old.next
		c.listed--
		if c.entries[old.key] == old {
			delete(c.entries, old.key)
		}
	}
}

// Forget drops the entry for key so a later Do re-executes it. The serving
// layer needs it for cancellation hygiene: Do caches errors on the premise
// that the interpreter is deterministic, but a run aborted by one job's
// deadline says nothing about the program, and a process-wide cache shared
// across jobs must not replay that abort into other jobs.
func (c *RunCache) Forget(key RunKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts. A result a cluster peer
// served is a hit; the peer layer counts those itself.
func (c *RunCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct runs cached.
func (c *RunCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
