package service

import (
	"testing"
	"time"
)

func qjob(tenant string, priority int) *Job {
	return &Job{Spec: JobSpec{Tenant: tenant, Priority: priority}}
}

func TestParseTenantQuotas(t *testing.T) {
	q, err := ParseTenantQuotas("acme=4:2, guest=1 ,*=8:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := q["acme"]; got.MaxInFlight != 4 || got.Weight != 2 {
		t.Errorf("acme: %+v", got)
	}
	if got := q["guest"]; got.MaxInFlight != 1 || got.Weight != 1 {
		t.Errorf("guest: %+v", got)
	}
	if got := q["*"]; got.MaxInFlight != 8 || got.Weight != 0.5 {
		t.Errorf("default: %+v", got)
	}
	if q, err := ParseTenantQuotas(""); err != nil || len(q) != 0 {
		t.Errorf("empty spec: %v %v", q, err)
	}
	for _, bad := range []string{"acme", "acme=", "acme=-1", "acme=2:0", "acme=2:x", "ACME=1", "acme=1,acme=2"} {
		if _, err := ParseTenantQuotas(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue(16, nil)
	low, mid, high := qjob("", 0), qjob("", 5), qjob("", 9)
	for _, j := range []*Job{low, mid, high} {
		if ok, _ := q.Push(j, false); !ok {
			t.Fatal("push failed")
		}
	}
	for i, want := range []*Job{high, mid, low} {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d: got priority %d, want %d", i, got.Spec.Priority, want.Spec.Priority)
		}
	}
}

func TestQueueTenantFairShare(t *testing.T) {
	// Tenant "heavy" has weight 2, "light" weight 1: under contention
	// heavy should get about two dequeues for every one of light's.
	quotas, err := ParseTenantQuotas("heavy=0:2,light=0:1")
	if err != nil {
		t.Fatal(err)
	}
	q := newJobQueue(64, quotas)
	for i := 0; i < 20; i++ {
		q.Push(qjob("heavy", 0), false)
	}
	for i := 0; i < 10; i++ {
		q.Push(qjob("light", 0), false)
	}
	heavySeen := 0
	for i := 0; i < 15; i++ {
		job, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		if job.Spec.Tenant == "heavy" {
			heavySeen++
		}
		q.Release(job.Spec.Tenant)
	}
	// Exactly 2:1 would be 10 heavy in 15 pops; allow one off for stride
	// boundary effects.
	if heavySeen < 9 || heavySeen > 11 {
		t.Fatalf("heavy got %d of the first 15 dequeues, want ~10", heavySeen)
	}
}

func TestQueueStarvationFreedom(t *testing.T) {
	// Even a weight-8 tenant cannot lock a weight-1 tenant out entirely.
	quotas, _ := ParseTenantQuotas("big=0:8,small=0:1")
	q := newJobQueue(128, quotas)
	for i := 0; i < 50; i++ {
		q.Push(qjob("big", 0), false)
	}
	q.Push(qjob("small", 0), false)
	smallAt := -1
	for i := 0; i < 20; i++ {
		job, _ := q.Pop()
		q.Release(job.Spec.Tenant)
		if job.Spec.Tenant == "small" {
			smallAt = i
			break
		}
	}
	if smallAt < 0 {
		t.Fatal("small tenant starved through 20 dequeues")
	}
}

func TestQueueInflightCap(t *testing.T) {
	quotas, _ := ParseTenantQuotas("capped=1")
	q := newJobQueue(16, quotas)
	q.Push(qjob("capped", 0), false)
	q.Push(qjob("capped", 0), false)
	q.Push(qjob("other", 0), false)

	first, ok := q.Pop()
	if !ok || first.Spec.Tenant != "capped" {
		t.Fatalf("first pop: %+v", first)
	}
	// capped is at its limit: the next pop must skip its queued job and
	// hand out the other tenant's.
	second, ok := q.Pop()
	if !ok || second.Spec.Tenant != "other" {
		t.Fatalf("second pop: got tenant %q, want other", second.Spec.Tenant)
	}
	// Nothing eligible now; a blocked Pop resumes when capped releases.
	done := make(chan string, 1)
	go func() {
		job, ok := q.Pop()
		if !ok {
			done <- "<closed>"
			return
		}
		done <- job.Spec.Tenant
	}()
	select {
	case got := <-done:
		t.Fatalf("pop returned %q while the tenant was at its cap", got)
	case <-time.After(50 * time.Millisecond):
	}
	q.Release("capped")
	select {
	case got := <-done:
		if got != "capped" {
			t.Fatalf("released pop: got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop still blocked after release")
	}
}

// TestQueueCloseDrainsPastCaps: Close hands back every queued job, the one
// its tenant's cap holds back included, wakes a blocked Pop and stops every
// later one and every push.
func TestQueueCloseDrainsPastCaps(t *testing.T) {
	quotas, _ := ParseTenantQuotas("capped=1")
	q := newJobQueue(16, quotas)
	q.Push(qjob("capped", 0), false)
	capped := qjob("capped", 0)
	q.Push(capped, false)
	if job, _ := q.Pop(); job == nil {
		t.Fatal("pop failed")
	}
	blocked := make(chan bool, 1)
	go func() {
		_, ok := q.Pop() // the cap holds capped back
		blocked <- ok
	}()
	if held := q.Close(); len(held) != 1 || held[0] != capped {
		t.Fatalf("close returned %v, want the capped job", held)
	}
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("a blocked pop took a job from the closed queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the blocked pop")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("closed queue still popping")
	}
	if ok, closed := q.Push(qjob("", 0), false); ok || !closed {
		t.Fatal("closed queue accepted a push")
	}
}

func TestQueueFullRejects(t *testing.T) {
	q := newJobQueue(2, nil)
	q.Push(qjob("", 0), false)
	q.Push(qjob("", 0), false)
	if ok, closed := q.Push(qjob("", 0), false); ok || closed {
		t.Fatalf("full queue: ok=%v closed=%v", ok, closed)
	}
	if q.Len() != 2 {
		t.Fatalf("len %d", q.Len())
	}
}

func TestQueueTenantsView(t *testing.T) {
	quotas, _ := ParseTenantQuotas("acme=3:2")
	q := newJobQueue(16, quotas)
	q.Push(qjob("acme", 0), false)
	q.Push(qjob("acme", 0), false)
	q.Push(qjob("zeta", 0), false)
	job, _ := q.Pop() // one acme in flight
	if job.Spec.Tenant != "acme" {
		t.Fatalf("pop: %q", job.Spec.Tenant)
	}
	views := q.Tenants()
	if len(views) != 2 {
		t.Fatalf("views: %+v", views)
	}
	if v := views[0]; v.Tenant != "acme" || v.Queued != 1 || v.InFlight != 1 || v.MaxInFlight != 3 || v.Weight != 2 {
		t.Errorf("acme view: %+v", v)
	}
	if v := views[1]; v.Tenant != "zeta" || v.Queued != 1 || v.InFlight != 0 {
		t.Errorf("zeta view: %+v", v)
	}
}
