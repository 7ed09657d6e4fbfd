// Package cluster is the peer layer that turns N psaflowd processes into
// one logical service: consistent-hash job placement over the node set,
// a groupcache-style read-through peer protocol for the profiled-run
// cache, and the health tracking that lets both degrade to local
// behaviour when peers disappear. Membership is static (the -peers
// flag); liveness is not — every routing decision consults per-peer
// health, so a dead node's keyspace is rehashed onto the survivors
// without any membership change.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerNode is the number of virtual points each node contributes to
// the ring. 64 points per node keeps the keyspace split within a few
// percent of even for small clusters while the full ring stays tiny
// (N*64 uint64s, rebuilt only on SetPeers).
const vnodesPerNode = 64

// ringPoint is one virtual node: a position on the hash circle and the
// node that owns it.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// placement. It is immutable after build — Node swaps whole rings on
// membership change — so lookups need no locking.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct node IDs, sorted
}

// NewRing builds a ring over the given node IDs (duplicates ignored).
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodesPerNode; v++ {
			r.points = append(r.points, ringPoint{hash: hashString(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node ID so every ring
		// built from the same membership routes identically.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the member IDs, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key: the first virtual point at or after
// the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key uint64) string {
	return r.OwnerWhere(key, nil)
}

// OwnerWhere walks the ring clockwise from key and returns the first
// distinct node accepted by the predicate — the bounded-load variant of
// consistent hashing: accept rejects nodes that are unhealthy or past
// their load bound, and the key spills to the next node on the circle.
// Keys not spilled keep their canonical owner, so a rejected node
// recovers its keyspace the moment accept admits it again. Returns ""
// when no node is accepted (callers fall back to local handling).
func (r *Ring) OwnerWhere(key uint64, accept func(node string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	tried := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(tried) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.node] {
			continue
		}
		tried[p.node] = true
		if accept == nil || accept(p.node) {
			return p.node
		}
	}
	return ""
}

// hashString is the ring's point hash: FNV-1a 64 finished with an
// avalanche mix. Raw FNV on short, near-identical strings (vnode labels,
// sequential key names) leaves the high bits — exactly the bits that
// place a point on the circle — barely stirred, which skews ownership by
// tens of percent; the finalizer spreads every input bit across the word.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit avalanche finalizer (the murmur3 fmix64 constants).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// JobKey hashes a job's placement identity. Tenant and program
// fingerprint together: all of one tenant's submissions of the same
// program land on one owner, so the owner's local run cache absorbs the
// duplicate-heavy traffic the distributed cache would otherwise carry.
func JobKey(tenant string, fingerprint uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%016x", tenant, fingerprint)
	return mix64(h.Sum64())
}

// RunKeyHash hashes a distributed run-cache key ID onto the ring.
func RunKeyHash(keyID string) uint64 { return hashString("run|" + keyID) }
