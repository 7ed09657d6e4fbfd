package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The tenant-aware job queue. The old queue was a plain buffered channel:
// strict FIFO, no notion of who submitted what, so one tenant's burst of
// a hundred sweeps starved everyone behind it. This queue keeps the same
// external contract (bounded, non-blocking push, close-to-drain) but
// selects work by three ordered rules:
//
//  1. Priority band: higher JobSpec.Priority dequeues first, always.
//  2. Tenant fair share within a band: stride scheduling — each tenant
//     carries a pass value advanced by 1/weight per dequeue, and the
//     eligible job with the lowest pass runs next, so a weight-2 tenant
//     gets twice the dequeues of a weight-1 tenant under contention
//     while an idle tenant's unused share evaporates (its pass rejoins
//     at the global virtual time, no banked credit).
//  3. FIFO within a tenant: submission order breaks ties.
//
// Per-tenant in-flight caps gate eligibility, not admission: a tenant at
// its cap keeps its jobs queued (invisible to selection) until one of
// its running jobs releases. Caps are ignored once the queue closes —
// drain must be able to hand every queued job to the snapshot.
//
// Tenancy survives crashes for free: tenant and priority live in the
// JobSpec, the WAL replays specs through the same Push path, and the
// scheduler state (passes, in-flight counts) rebuilds as replayed jobs
// are pushed and dequeued.

// tenantQuota is one tenant's scheduling contract.
type tenantQuota struct {
	// MaxInFlight caps the tenant's concurrently running jobs
	// (0 = uncapped).
	MaxInFlight int
	// Weight is the tenant's fair-share weight (dequeues per unit of
	// contention); defaults to 1.
	Weight float64
}

// ParseTenantQuotas parses the -tenant-quota flag / Config.TenantQuotas
// string: comma-separated "tenant=maxInflight[:weight]" entries, where
// tenant "*" sets the default for tenants not named. The CLI calls it
// before the spec reaches Config.TenantQuotas, so a typo fails startup
// rather than being logged and ignored. Examples:
//
//	"acme=4:2,guest=1"      acme: 4 in flight, double weight; guest: 1 in flight
//	"*=2,batch=8:0.5"       everyone 2 in flight; batch 8 but half weight
func ParseTenantQuotas(spec string) (map[string]tenantQuota, error) {
	quotas := make(map[string]tenantQuota)
	if strings.TrimSpace(spec) == "" {
		return quotas, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("tenant quota %q: want tenant=maxInflight[:weight]", entry)
		}
		name = strings.TrimSpace(name)
		if name != "*" && !validTenant(name) {
			return nil, fmt.Errorf("tenant quota %q: invalid tenant name", entry)
		}
		if _, dup := quotas[name]; dup {
			return nil, fmt.Errorf("tenant quota %q: duplicate tenant", entry)
		}
		capStr, weightStr, hasWeight := strings.Cut(val, ":")
		q := tenantQuota{Weight: 1}
		n, err := strconv.Atoi(strings.TrimSpace(capStr))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("tenant quota %q: maxInflight must be a non-negative integer", entry)
		}
		q.MaxInFlight = n
		if hasWeight {
			w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("tenant quota %q: weight must be > 0", entry)
			}
			q.Weight = w
		}
		quotas[name] = q
	}
	return quotas, nil
}

// validTenant reports whether name is a legal tenant: empty (the default
// tenant) or 1-32 of [a-z0-9-].
func validTenant(name string) bool { return isSlug(name, 32) }

// jobQueue is the bounded, tenant-fair queue described above. All state
// is guarded by mu; Pop blocks on cond until a job is eligible or the
// queue closes.
type jobQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	cap    int
	closed bool
	items  []*queuedJob
	seq    int64

	quotas   map[string]tenantQuota
	inflight map[string]int
	passes   map[string]float64
	// vtime is the scheduling front: the pass value of the most recent
	// dequeue. New and idle tenants join at vtime — not ahead of it, so
	// no banked credit; not behind the max issued pass, or a tenant with
	// a large stride would permanently out-tie late joiners.
	vtime float64
}

type queuedJob struct {
	job *Job
	seq int64
}

func newJobQueue(capacity int, quotas map[string]tenantQuota) *jobQueue {
	q := &jobQueue{
		cap:      capacity,
		quotas:   quotas,
		inflight: make(map[string]int),
		passes:   make(map[string]float64),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// quota resolves a tenant's contract: its own entry, else the "*"
// default, else uncapped weight-1.
func (q *jobQueue) quota(tenant string) tenantQuota {
	if t, ok := q.quotas[tenant]; ok {
		return t
	}
	if t, ok := q.quotas["*"]; ok {
		return t
	}
	return tenantQuota{Weight: 1}
}

// Push enqueues a job. It never blocks: a full queue returns false, a
// closed queue returns false with closed=true. The cap is backpressure on
// new submissions: a replayed job was acknowledged by an earlier process
// and goes in past it; submissions wait for the backlog to drain below it.
func (q *jobQueue) Push(job *Job, replayed bool) (ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, true
	}
	if len(q.items) >= q.cap && !replayed {
		return false, false
	}
	q.seq++
	q.items = append(q.items, &queuedJob{job: job, seq: q.seq})
	q.cond.Signal()
	return true, false
}

// eligible reports whether the tenant may start another job right now.
// Caps stop applying once the queue closes: the drain path must be able
// to pull every job out.
func (q *jobQueue) eligible(tenant string) bool {
	if q.closed {
		return true
	}
	t := q.quota(tenant)
	return t.MaxInFlight <= 0 || q.inflight[tenant] < t.MaxInFlight
}

// Pop blocks for the next schedulable job. ok=false means the queue is
// closed and empty — the worker exits. Every successful Pop charges the
// job's tenant one in-flight slot; the worker must Release it.
func (q *jobQueue) Pop() (job *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if idx := q.selectLocked(); idx >= 0 {
			item := q.items[idx]
			q.items = append(q.items[:idx], q.items[idx+1:]...)
			tenant := item.job.Spec.Tenant
			q.inflight[tenant]++
			q.advancePass(tenant)
			return item.job, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// Twins takes every queued job that would execute job's flow (sameRun) out
// of the queue, in queue order — cancelled ones too, which a worker would
// only skip. Twins never run, so no tenant is charged a slot.
func (q *jobQueue) Twins(job *Job) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var twins []*Job
	kept := q.items[:0]
	for _, item := range q.items {
		if sameRun(job, item.job) {
			twins = append(twins, item.job)
		} else {
			kept = append(kept, item)
		}
	}
	clear(q.items[len(kept):])
	q.items = kept
	return twins
}

// selectLocked picks the next job: highest priority band, then lowest
// tenant pass, then lowest sequence. Returns -1 when nothing is eligible.
func (q *jobQueue) selectLocked() int {
	best := -1
	var bestPass float64
	for i, item := range q.items {
		tenant := item.job.Spec.Tenant
		if !q.eligible(tenant) {
			continue
		}
		pass := q.pass(tenant)
		if best < 0 {
			best, bestPass = i, pass
			continue
		}
		b := q.items[best]
		switch {
		case item.job.Spec.Priority != b.job.Spec.Priority:
			if item.job.Spec.Priority > b.job.Spec.Priority {
				best, bestPass = i, pass
			}
		case pass != bestPass:
			if pass < bestPass {
				best, bestPass = i, pass
			}
		case item.seq < b.seq:
			best, bestPass = i, pass
		}
	}
	return best
}

// pass returns the tenant's current pass, reactivating an idle tenant at
// the global virtual time so it cannot spend banked credit.
func (q *jobQueue) pass(tenant string) float64 {
	p, ok := q.passes[tenant]
	if !ok || p < q.vtime {
		return q.vtime
	}
	return p
}

// advancePass charges one dequeue to the tenant's stride and moves the
// scheduling front to the pass this dequeue was granted at.
func (q *jobQueue) advancePass(tenant string) {
	p := q.pass(tenant)
	if p > q.vtime {
		q.vtime = p
	}
	q.passes[tenant] = p + 1/q.quota(tenant).Weight
}

// Release returns a tenant's in-flight slot and wakes waiting workers.
func (q *jobQueue) Release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] > 0 {
		q.inflight[tenant]--
		if q.inflight[tenant] == 0 {
			delete(q.inflight, tenant)
		}
	}
	q.cond.Broadcast()
}

// Close stops admission and unblocks every Pop. Queued jobs remain
// poppable (caps no longer apply) so drain can collect them.
func (q *jobQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len returns the queued-job count.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Load returns queued plus in-flight jobs — the node-load figure
// advertised to cluster peers for bounded-load job placement.
func (q *jobQueue) Load() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := int64(len(q.items))
	for _, c := range q.inflight {
		n += int64(c)
	}
	return n
}

// tenantView is one tenant's row in /metrics.
type tenantView struct {
	Tenant      string  `json:"tenant"`
	Queued      int     `json:"queued"`
	InFlight    int     `json:"in_flight"`
	MaxInFlight int     `json:"max_in_flight,omitempty"`
	Weight      float64 `json:"weight"`
}

// Tenants snapshots per-tenant scheduler state for /metrics, sorted by
// tenant name (the anonymous tenant sorts first as "").
func (q *jobQueue) Tenants() []tenantView {
	q.mu.Lock()
	defer q.mu.Unlock()
	queued := make(map[string]int)
	for t := range q.inflight {
		queued[t] = 0
	}
	for _, item := range q.items {
		queued[item.job.Spec.Tenant]++
	}
	out := make([]tenantView, 0, len(queued))
	for t, n := range queued {
		quota := q.quota(t)
		out = append(out, tenantView{
			Tenant: t, Queued: n, InFlight: q.inflight[t],
			MaxInFlight: quota.MaxInFlight, Weight: quota.Weight,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
