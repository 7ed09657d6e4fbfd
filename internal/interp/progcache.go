package interp

import (
	"sync"

	"psaflow/internal/minic"
)

// ProgramCache shares lowered bytecode programs across Runs, keyed by
// minic.Fingerprint. It exists for the workloads a run cache cannot
// absorb: the same program executed against many different inputs (DSE
// candidate sweeps, batched daemon jobs), where every Run used to pay a
// full lowering and started from cold generic opcodes.
//
// Each fingerprint owns a pool of lowered programs handed out under an
// exclusive lease — exclusivity is what makes in-place quickening safe:
// a leased program's instruction words are written only by the single
// run holding the lease, and a released program keeps its quickened
// instructions (and hot counters) for the next lease. Concurrent runs of
// the same fingerprint each get their own copy; sequential runs — the
// batched-execution case — share one progressively-quickened program.
//
// The first lease of a fingerprint also captures a DispatchTrace, and
// MineFusion turns it into the superinstruction policy used by every
// later lowering of that fingerprint, so extra copies lowered for
// concurrency start pre-fused with exactly the patterns the program was
// observed to execute.
type ProgramCache struct {
	mu      sync.Mutex
	entries map[uint64]*progEntry
	peer    PolicyPeer // nil on a single-node cache
}

// PolicyPeer is the distributed hook for mined fusion policies
// (implemented by cluster.Node): a fingerprint first seen on this node
// may already have been traced and mined on a peer, in which case the
// first lowering here starts from the mined policy instead of paying
// for a local trace. Both calls are best-effort — peer loss simply
// means the node traces locally, exactly like a single-node cache.
type PolicyPeer interface {
	FetchPolicy(fp uint64) (FusionPolicy, bool)
	FillPolicy(fp uint64, policy FusionPolicy)
}

// SetPeer wires the distributed policy hook (call at construction,
// before the cache is shared).
func (c *ProgramCache) SetPeer(p PolicyPeer) {
	c.mu.Lock()
	c.peer = p
	c.mu.Unlock()
}

type progEntry struct {
	free []*bprog // released lowered programs, ready to lease
	// loops is the shared read-only loop-metadata map (built once per
	// fingerprint; machines only read it).
	loops map[int]loopInfo
	// Mined superinstruction selection. Until a successful traced run
	// completes, mined is false and lowerings use AllFusion.
	policy FusionPolicy
	mined  bool
	// tracing marks a trace-capturing lease in flight, so concurrent
	// first runs don't all pay for tracing.
	tracing bool
	// failed latches a lowering panic: later leases skip straight to the
	// caller's defensive tree-walk fallback instead of re-panicking.
	failed bool
}

// progLease is one exclusive claim on a lowered program. bp is nil when
// lowering failed (the caller falls back to the tree-walker); trace
// is non-nil when this run should capture a dispatch trace for mining.
type progLease struct {
	cache   *ProgramCache
	ent     *progEntry
	fp      uint64
	bp      *bprog
	loops   map[int]loopInfo
	trace   *DispatchTrace
	lowered bool // this lease performed a lowering (cache miss or extra copy)
}

// NewProgramCache returns an empty cache, safe for concurrent use.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[uint64]*progEntry)}
}

// lease returns an exclusively-held lowered program for prog, lowering
// one if no released copy is available. fp must be prog's fingerprint —
// the cache trusts the caller's keying exactly as core.RunCache does.
func (c *ProgramCache) lease(fp uint64, prog *minic.Program) *progLease {
	c.mu.Lock()
	ent := c.entries[fp]
	if ent == nil {
		ent = &progEntry{}
		c.entries[fp] = ent
	}
	l := &progLease{cache: c, ent: ent, fp: fp}
	if n := len(ent.free); n > 0 {
		l.bp = ent.free[n-1]
		ent.free[n-1] = nil
		ent.free = ent.free[:n-1]
		l.loops = ent.loops
		c.mu.Unlock()
		return l
	}
	if ent.failed {
		c.mu.Unlock()
		return l // bp nil: remembered lowering failure
	}
	policy := AllFusion
	peer := c.peer
	if ent.mined {
		policy = ent.policy
	} else if !ent.tracing {
		// First lowering of this fingerprint (or the previous traced run
		// failed): capture a trace to mine the fusion policy from.
		ent.tracing = true
		l.trace = &DispatchTrace{}
	}
	c.mu.Unlock()

	// The tracing lease checks the cluster before paying for a local
	// trace: a peer that already mined this fingerprint hands over its
	// policy and this node lowers pre-fused, no trace run needed. The
	// tracing flag (set above) keeps concurrent first leases from
	// stampeding the peer; the fetch runs outside the lock because it
	// may block on the network.
	if l.trace != nil && peer != nil {
		if pol, ok := peer.FetchPolicy(fp); ok {
			pol &= AllFusion // foreign bits never reach the lowering
			c.mu.Lock()
			if !ent.mined {
				ent.policy = pol
				ent.mined = true
			}
			policy = ent.policy
			ent.tracing = false
			c.mu.Unlock()
			l.trace = nil
		}
	}

	// Lowering runs outside the lock: it can be slow, and concurrent
	// leases of other fingerprints (or extra copies of this one) must
	// not serialize behind it.
	bp := lowerBytecode(prog, policy)

	c.mu.Lock()
	defer c.mu.Unlock()
	if bp == nil {
		ent.failed = true
		if l.trace != nil {
			ent.tracing = false
			l.trace = nil
		}
		return l
	}
	if ent.loops == nil {
		ent.loops = buildLoopInfo(prog)
	}
	l.bp = bp
	l.loops = ent.loops
	l.lowered = true
	return l
}

// release returns a leased program to its fingerprint's pool. ok reports
// whether the run succeeded; a trace captured by a failed run is
// discarded (its counts stop at the error), a successful trace is mined
// into the fingerprint's fusion policy.
func (c *ProgramCache) release(l *progLease, ok bool) {
	if l.bp == nil {
		return
	}
	c.mu.Lock()
	var publish FusionPolicy
	published := false
	if l.trace != nil {
		l.ent.tracing = false
		if ok && !l.ent.mined {
			l.ent.policy = l.trace.MineFusion()
			l.ent.mined = true
			if c.peer != nil {
				publish, published = l.ent.policy, true
			}
		}
	}
	peer := c.peer
	l.ent.free = append(l.ent.free, l.bp)
	l.bp = nil
	c.mu.Unlock()
	// Publish a freshly mined policy to its cluster owner outside the
	// lock (the fill may block on the network; best-effort by contract).
	if published {
		peer.FillPolicy(l.fp, publish)
	}
}

// Len returns the number of distinct fingerprints cached.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
