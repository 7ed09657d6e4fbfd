package service

// The lifecycle model test: one seeded driver pushes random interleavings
// of submit, cancel, release-a-gate, abandon-and-restart (the in-process
// kill -9 of recover_test.go, also parked at every step hook of admit and
// complete) and drain-and-restart through a real server over a real WAL,
// and after every operation compares the server with a reference model of
// what the three transitions in lifecycle.go promise:
//
//	(a) every acknowledged ID is always answerable — live or stored, never
//	    404 — and has at most one terminal document, whose bytes never
//	    change across reads, registry eviction or restarts;
//	(b) a readable terminal state ⇒ GET /result is 200 with that document,
//	    and once complete has returned the store holds the same bytes;
//	(c) every byte prefix of the run's log opens, shows each ID absent,
//	    pending, or terminal with the final bytes — never terminal and
//	    then pending — and a server started over it requeues exactly the
//	    pending ones;
//	(d) a job's event stream is a prefix of queued, started, one terminal,
//	    close.
//
// The one anomaly the model admits, and counts, is the known gap in
// Server.complete: a result read between "visible" and "durable" of a
// server that is then abandoned, which only the step hook can reach.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psaflow/internal/events"
	"psaflow/internal/experiments"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// ---- the reference model ----

// mjob is what the model knows of one job that has a submit record.
type mjob struct {
	id, key string // key: the spec, which is the batch identity
	gated   bool   // its flow parks until released (when it runs one)
	state   JobState
	started int    // "started" events on its stream
	durable bool   // its terminal record is in the log
	live    bool   // in the current incarnation's registry
	doc     []byte // the terminal document, once seen
}

// model is the reference: a FIFO queue in front of `workers` workers, a
// run that ends done completing the queued jobs with its key, a registry
// that retains `retain` finished jobs, and a log that remembers submits
// until a terminal record or an evict.
type model struct {
	workers, queueCap, retain int

	jobs    map[string]*mjob
	order   []string // every job with a submit record, in log order
	refused []string // 429'd and rolled back: gone for good
	queue   []string // pushed, not yet popped
	busy    int      // workers parked on a gated flow
	retired []string // finished jobs, oldest first (registry eviction)
	appends int64    // records this incarnation has written
	ended   int64    // terminal transitions this incarnation has made

	twins, evicted int // batch riders and registry evictions so far (for the test log)
}

// record is the first step of admit: the submit record alone.
func (m *model) record(id, key string, gated bool) *mjob {
	j := &mjob{id: id, key: key, gated: gated, state: StateQueued}
	m.jobs[id], m.order = j, append(m.order, id)
	m.appends++
	return j
}

func (m *model) submit(id, key string, gated bool) int {
	if len(m.queue) >= m.queueCap {
		m.refused = append(m.refused, id)
		m.appends += 2 // the submit record and its evict
		return http.StatusTooManyRequests
	}
	m.record(id, key, gated).live = true
	m.queue = append(m.queue, id)
	m.settle()
	return http.StatusAccepted
}

// settle runs the workers until each is parked on a gated flow or the
// queue is empty: pop in order and run.
func (m *model) settle() {
	for m.busy < m.workers && len(m.queue) > 0 {
		j := m.jobs[m.queue[0]]
		m.queue = m.queue[1:]
		j.state, j.started = StateRunning, 1
		if j.gated {
			m.busy++
		} else {
			m.complete(j, StateDone)
		}
	}
}

// complete ends a run. One that ends done first takes every queued entry
// with its key out of the queue — cancelled ones too — and then completes
// itself and, in queue order, the twins among them.
func (m *model) complete(j *mjob, state JobState) {
	var twins []*mjob
	if state == StateDone {
		kept := m.queue[:0]
		for _, id := range m.queue {
			switch t := m.jobs[id]; {
			case t.key != j.key:
				kept = append(kept, id)
			case t.state == StateQueued:
				twins = append(twins, t)
			}
		}
		m.queue = kept
	}
	m.finish(j, state)
	for _, t := range twins {
		t.started = 1
		m.finish(t, StateDone)
		m.twins++
	}
}

func (m *model) finish(j *mjob, state JobState) {
	j.state, j.durable = state, true
	m.appends++
	m.ended++
	m.retired = append(m.retired, j.id)
	for len(m.retired) > m.retain {
		m.jobs[m.retired[0]].live = false
		m.retired = m.retired[1:]
		m.evicted++
	}
}

// release opens a running job's gate; state says how it ends.
func (m *model) release(j *mjob, state JobState) {
	m.busy--
	m.complete(j, state)
	m.settle()
}

func (m *model) cancel(id string) int {
	j := m.jobs[id]
	switch {
	case j == nil || !j.live:
		return http.StatusNotFound
	case j.state == StateQueued: // and leaves the queue at once
		m.finish(j, StateCancelled)
		m.queue = slices.DeleteFunc(m.queue, func(q string) bool { return q == id })
		return http.StatusOK
	case j.state == StateRunning:
		m.release(j, StateCancelled)
		return http.StatusAccepted
	}
	return http.StatusConflict
}

// restart is what a new process finds: every job without a durable
// terminal record is queued again, in log order and past the queue's cap if
// there are more of them than it holds; the rest is history.
func (m *model) restart() {
	m.queue, m.retired, m.busy, m.appends, m.ended = nil, nil, 0, 0, 0
	for _, id := range m.order {
		j := m.jobs[id]
		j.live, j.started = !j.durable, 0
		if j.live {
			j.state, j.doc = StateQueued, nil
			m.queue = append(m.queue, id)
		}
	}
}

// ---- the driver ----

const (
	modelBaseQueue = 4
	modelRetain    = 3
)

// The step hooks a transition can be abandoned at ("admit:refused" is
// reached only with a full queue).
var (
	admitSteps    = []string{"admit:recorded", "admit:enqueued"}
	completeSteps = []string{"complete:visible", "complete:published", "complete:durable"}
)

type modelRun struct {
	t    *testing.T
	seed int64
	op   int
	log  []string // the operations so far, for the failure message
	rng  *rand.Rand
	dir  string
	m    *model

	s    *Server
	h    *gateHook
	dead chan struct{} // closed when the current incarnation is abandoned
	// ended counts its complete calls that have got their record appended
	// and fsynced (the store's index shows a record before it is flushed).
	ended *atomic.Int64

	mu     sync.Mutex
	armed  string      // the step at which the next goroutine parks
	parked chan string // it says so here

	earlyReads int            // results read before their terminal record (the allowance)
	seen       map[string]int // what the run exercised, for the log
}

func (r *modelRun) failf(format string, args ...any) {
	r.t.Helper()
	tail := r.log[max(0, len(r.log)-12):]
	r.t.Fatalf("seed %d, operation %d: %s\nlast operations:\n  %s",
		r.seed, r.op, fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

func (r *modelRun) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%d: ", r.op)+fmt.Sprintf(format, args...))
}

// boot starts a new incarnation over the run's data directory; gated jobs
// the log still holds as pending get their gates back before it replays.
func (r *modelRun) boot() {
	r.t.Helper()
	dead, ended := make(chan struct{}), new(atomic.Int64)
	s := New(Config{Workers: r.m.workers, QueueSize: r.m.queueCap, RetainJobs: r.m.retain, DataDir: r.dir})
	h := &gateHook{gates: make(map[string]chan struct{})}
	for _, id := range r.m.queue {
		if r.m.jobs[id].gated {
			h.hold(id)
		}
	}
	s.runFlow = h.flow
	s.step = func(at string) {
		select {
		case <-dead: // an abandoned server does nothing further
			runtime.Goexit()
		default:
		}
		if at == "complete:durable" {
			ended.Add(1)
		}
		r.mu.Lock()
		hit := r.armed == at
		if hit {
			r.armed = ""
		}
		r.mu.Unlock()
		if hit {
			r.parked <- at
			<-dead
			runtime.Goexit()
		}
	}
	if err := s.Start(); err != nil {
		r.failf("start: %v", err)
	}
	r.s, r.h, r.dead, r.ended = s, h, dead, ended
}

func (r *modelRun) do(method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	r.s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// arm makes the next goroutine to reach step park there, runs trigger on a
// goroutine of its own (it may be the one that parks), and waits for the
// park.
func (r *modelRun) arm(step string, trigger func()) {
	r.t.Helper()
	r.mu.Lock()
	r.armed = step
	r.mu.Unlock()
	go trigger()
	select {
	case <-r.parked:
	case <-time.After(10 * time.Second):
		r.failf("nothing reached %s", step)
	}
}

func (r *modelRun) nextID() string {
	return fmt.Sprintf("%s-%06d", r.s.idBase, r.s.nextID.Load()+1)
}

var modelSpecs = []string{`{"bench":"nbody"}`, `{"bench":"kmeans"}`, `{"bench":"kmeans","mode":"uninformed"}`}

// submission draws a spec and a gate for the job the server will mint next.
// With two workers the job is its own tenant, so it has no twins (modelSeeds).
func (r *modelRun) submission() (id, spec string, gated bool) {
	id, spec, gated = r.nextID(), modelSpecs[r.rng.Intn(len(modelSpecs))], r.rng.Intn(10) < 6
	if r.m.workers > 1 {
		spec = strings.TrimSuffix(spec, "}") + `,"tenant":"` + id + `"}`
	}
	if gated {
		r.h.hold(id)
	}
	return id, spec, gated
}

func (r *modelRun) submit() {
	id, spec, gated := r.submission()
	want := r.m.submit(id, spec, gated)
	r.note("submit %s %s gated=%t -> %d", id, spec, gated, want)
	r.seen[fmt.Sprint("submit ", want)]++
	code, body := r.do(http.MethodPost, "/v1/jobs", spec)
	var st JobStatus
	if err := json.Unmarshal(body, &st); code != want || (code == http.StatusAccepted && (err != nil || st.ID != id || st.State != StateQueued)) {
		r.failf("submit answered %d %s, want %d (and, if 202, %s queued)", code, body, want, id)
	}
}

// pick returns a random job satisfying ok, or nil.
func (r *modelRun) pick(ok func(*mjob) bool) *mjob {
	var c []*mjob
	for _, id := range r.m.order {
		if j := r.m.jobs[id]; ok(j) {
			c = append(c, j)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[r.rng.Intn(len(c))]
}

func isQueued(j *mjob) bool  { return j.live && j.state == StateQueued }
func isRunning(j *mjob) bool { return j.state == StateRunning }

func (r *modelRun) cancel() {
	targets := []string{"nosuch-000001"}
	for _, kind := range []func(*mjob) bool{
		isQueued, isRunning,
		func(j *mjob) bool { return j.live && j.state.Terminal() },
		func(j *mjob) bool { return !j.live }, // evicted from the registry, or from an earlier run
	} {
		if j := r.pick(kind); j != nil {
			targets = append(targets, j.id)
		}
	}
	id := targets[r.rng.Intn(len(targets))]
	want := r.m.cancel(id)
	r.note("cancel %s -> %d", id, want)
	r.seen[fmt.Sprint("cancel ", want)]++
	if code, body := r.do(http.MethodDelete, "/v1/jobs/"+id, ""); code != want {
		r.failf("cancel %s answered %d %s, want %d", id, code, body, want)
	}
}

func (r *modelRun) release() {
	j := r.pick(isRunning)
	if j == nil {
		return
	}
	r.note("release %s", j.id)
	r.m.release(j, StateDone)
	gate, _ := r.h.gate(j.id)
	close(gate)
}

// abandon kills the incarnation — at rest, or parked between two steps of
// a transition it is in the middle of — and boots the next one.
func (r *modelRun) abandon() {
	running, queued := r.pick(isRunning), r.pick(isQueued)
	where := []int{0, 1, 1} // at rest, or twice as likely inside each transition that can run
	if running != nil {
		where = append(where, 2, 2)
	}
	if queued != nil {
		where = append(where, 3, 3)
	}
	switch where[r.rng.Intn(len(where))] {
	case 1: // inside admit
		id, spec, gated := r.submission()
		step := admitSteps[r.rng.Intn(len(admitSteps))]
		if len(r.m.queue) >= r.m.queueCap {
			step = "admit:refused"
		}
		r.note("abandon at %s of %s", step, id)
		r.seen["abandon at "+step]++
		r.arm(step, func() { r.do(http.MethodPost, "/v1/jobs", spec) })
		if step == "admit:enqueued" { // the job is in: the workers see it, the client does not
			r.m.submit(id, spec, gated)
			r.settled()
		} else {
			r.m.record(id, spec, gated)
		}
	case 2: // inside complete, on the worker
		step := completeSteps[r.rng.Intn(len(completeSteps))]
		r.note("abandon at %s of %s (released)", step, running.id)
		r.seen["abandon at "+step]++
		gate, _ := r.h.gate(running.id)
		r.arm(step, func() { close(gate) })
		r.parkedInComplete(running, step, StateDone)
	case 3: // inside complete, on the cancel handler
		step := completeSteps[r.rng.Intn(len(completeSteps))]
		r.note("abandon at %s of %s (cancelled)", step, queued.id)
		r.seen["abandon at "+step]++
		r.arm(step, func() { r.do(http.MethodDelete, "/v1/jobs/"+queued.id, "") })
		r.parkedInComplete(queued, step, StateCancelled)
	default:
		r.note("abandon")
		r.seen["abandon at rest"]++
	}
	close(r.dead)
	r.m.restart()
	r.boot()
	r.m.settle()
}

// parkedInComplete: a transition to state is parked at step. From
// "visible" on, (b) holds its first half — the state reads terminal and
// the result is served; before "durable" that is the known gap, because
// the server is about to die with no terminal record: the read is the one
// anomaly the model counts.
func (r *modelRun) parkedInComplete(j *mjob, step string, state JobState) {
	code, body := r.do(http.MethodGet, "/v1/jobs/"+j.id+"/result", "")
	var res JobResult
	if err := json.Unmarshal(body, &res); code != http.StatusOK || err != nil || res.State != state {
		r.failf("job %s parked at %s: result answers %d %s, want 200 and %s", j.id, step, code, body, state)
	}
	if step == "complete:durable" {
		j.state, j.durable = state, true
	} else {
		r.earlyReads++
	}
}

// drain shuts the incarnation down cleanly — running flows are released
// once the drain flag is up, queued jobs stay in the log — probes the
// drained server, and boots the next one.
func (r *modelRun) drain() {
	r.note("drain")
	r.seen["drain"]++
	done := make(chan int, 1)
	go func() {
		n, err := r.s.Drain()
		if err != nil {
			r.t.Errorf("seed %d, operation %d: drain: %v", r.seed, r.op, err)
		}
		done <- n
	}()
	for !r.s.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	for _, id := range r.m.order {
		if j := r.m.jobs[id]; isRunning(j) {
			r.m.complete(j, StateDone)
			gate, _ := r.h.gate(id)
			close(gate)
		}
	}
	want := 0
	for _, id := range r.m.order {
		if isQueued(r.m.jobs[id]) {
			want++
		}
	}
	if n := <-done; n != want {
		r.failf("drain left %d queued jobs, want %d", n, want)
	}
	if code, body := r.do(http.MethodPost, "/v1/jobs", modelSpecs[0]); code != http.StatusServiceUnavailable {
		r.failf("submit to a drained server answered %d %s, want 503", code, body)
	}
	r.m.restart()
	r.boot()
	r.m.settle()
}

// view renders what the model says of every job, its event stream (d) and
// the queue; observed renders the same from the server. Equal strings are
// a settled server.
func (r *modelRun) view(observed bool) string {
	var b strings.Builder
	for _, id := range slices.Concat(r.m.order, r.m.refused) {
		j := r.m.jobs[id]
		state := "absent" // refused
		if observed {
			e, ok := r.s.store.Get(id)
			if job := r.s.lookup(id); job != nil {
				state = "live " + string(job.State())
				sub, _ := job.events.Subscribe(0)
				frames, closed := sub.Poll(64)
				sub.Close()
				for _, f := range frames {
					state += " " + f.Type
				}
				if closed {
					state += " close"
				}
			} else if ok && e.Phase == store.PhaseTerminal {
				state = "stored " + e.State
			} else if ok {
				state = "pending, not live"
			}
		} else if j != nil && j.live {
			// (d): queued, started, one terminal event, close — as far as the
			// job has got.
			state = "live " + string(j.state) + " " + events.TypeQueued + strings.Repeat(" "+events.TypeStarted, j.started)
			if j.state.Terminal() {
				state += " " + string(j.state) + " close"
			}
		} else if j != nil {
			state = "stored " + string(j.state)
		}
		fmt.Fprintf(&b, "%s %s\n", id, state)
	}
	queued, ended := len(r.m.queue), r.m.ended
	if observed {
		queued, ended = r.s.queue.Len(), r.ended.Load()
	}
	fmt.Fprintf(&b, "queued %d, terminal records %d", queued, ended)
	return b.String()
}

// settled waits for the server to reach the state the model predicts.
func (r *modelRun) settled() {
	r.t.Helper()
	want := r.view(false)
	deadline := time.Now().Add(10 * time.Second)
	for r.view(true) != want {
		if time.Now().After(deadline) {
			r.failf("server did not settle.\n--- server:\n%s\n--- model:\n%s", r.view(true), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// check holds the settled server — settling is (d) — against (a) and (b),
// and the log against what the model says was written.
func (r *modelRun) check() {
	r.t.Helper()
	r.settled()
	var pending []string
	for _, id := range r.m.order {
		j := r.m.jobs[id]
		code, body := r.do(http.MethodGet, "/v1/jobs/"+id, "")
		var st JobStatus
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.State != j.state {
			r.failf("(a) job %s: status answers %d %s, want 200 and %s", id, code, body, j.state)
		}
		if !j.state.Terminal() {
			pending = append(pending, id)
			continue
		}
		e, _ := r.s.store.Get(id)
		if j.doc == nil {
			j.doc = e.Result
		}
		var want bytes.Buffer
		json.Indent(&want, j.doc, "", "  ")
		want.WriteByte('\n')
		if code, body := r.do(http.MethodGet, "/v1/jobs/"+id+"/result", ""); code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
			r.failf("(a,b) job %s is %s but its result answers %d %s, want 200 and the document first read:\n%s", id, j.state, code, body, want.Bytes())
		}
		if e.Phase != store.PhaseTerminal || !bytes.Equal(e.Result, j.doc) {
			r.failf("(b) job %s is %s but the store holds phase %d, document %s; want terminal with %s", id, j.state, e.Phase, e.Result, j.doc)
		}
	}
	var stored []string
	for _, e := range r.s.store.Pending() {
		stored = append(stored, e.ID)
	}
	if !slices.Equal(stored, pending) {
		r.failf("the log holds %v as pending, want exactly the unfinished acknowledged jobs %v", stored, pending)
	}
	for _, id := range r.m.refused {
		if code, body := r.do(http.MethodGet, "/v1/jobs/"+id, ""); code != http.StatusNotFound {
			r.failf("refused job %s: status answers %d %s, want 404", id, code, body)
		}
	}
	if got := r.s.store.Stats().Appends; got != r.m.appends {
		r.failf("this incarnation appended %d records, the model says %d", got, r.m.appends)
	}
}

// checkPrefixes is (c), over the log the whole run left behind.
func (r *modelRun) checkPrefixes() {
	r.t.Helper()
	segs, _ := filepath.Glob(filepath.Join(r.dir, "store", "*.log"))
	sort.Strings(segs)
	var log [][]byte
	total := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil || !strings.HasPrefix(filepath.Base(seg), "wal-") {
			r.failf("(c) segment %s: %v (a snapshot would need a prefix rule of its own)", seg, err)
		}
		log, total = append(log, data), total+len(data)
	}
	cuts := []int{total}
	for i := 0; i < 12; i++ {
		cuts = append(cuts, r.rng.Intn(total+1))
	}
	sort.Ints(cuts)
	rank := map[string]int{} // 0 absent, 1 pending, 2 terminal: only ever up
	for i, cut := range cuts {
		dir := filepath.Join(r.t.TempDir(), "store")
		os.MkdirAll(dir, 0o755)
		for k, left := 0, cut; k < len(log) && left > 0; k++ {
			n := min(left, len(log[k]))
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[k])), log[k][:n], 0o644); err != nil {
				r.failf("(c) %v", err)
			}
			left -= n
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			r.failf("(c) the first %d of %d log bytes do not open: %v", cut, total, err)
		}
		var pending []string
		for _, id := range slices.Concat(r.m.order, r.m.refused) {
			e, ok := st.Get(id)
			now := 0
			if ok && e.Phase == store.PhaseTerminal {
				if j := r.m.jobs[id]; j == nil || !bytes.Equal(e.Result, j.doc) {
					r.failf("(c) at byte %d job %s is terminal with %s, which is not its final document", cut, id, e.Result)
				}
				now = 2
			} else if ok {
				now = 1
				pending = append(pending, id)
			}
			if now < rank[id] && r.m.jobs[id] != nil {
				r.failf("(c) job %s goes from %d to %d at byte %d (0 absent, 1 pending, 2 terminal)", id, rank[id], now, cut)
			}
			rank[id] = now
		}
		if err := st.Close(); err != nil {
			r.failf("(c) %v", err)
		}
		if i%4 != 0 {
			continue
		}
		// A server started over the prefix requeues exactly the pending jobs
		// and finishes them.
		s := New(Config{Workers: 2, QueueSize: modelBaseQueue, DataDir: filepath.Dir(dir)})
		s.runFlow = func(context.Context, *Job, *telemetry.Recorder) ([]experiments.DesignResult, error) { return nil, nil }
		if err := s.Start(); err != nil {
			r.failf("(c) start over the first %d log bytes: %v", cut, err)
		}
		if n := s.rec.Counter(telemetry.CounterStoreRequeued); int(n) != len(pending) {
			r.failf("(c) start over the first %d log bytes requeued %d jobs, want the %d pending ones %v", cut, n, len(pending), pending)
		}
		for _, id := range pending {
			if s.lookup(id) == nil {
				r.failf("(c) start over the first %d log bytes did not requeue %s", cut, id)
			}
		}
		waitCond(r.t, fmt.Sprintf("seed %d: the jobs requeued from the first %d log bytes to finish", r.seed, cut), func() bool {
			return s.store.Stats().PendingJobs == 0
		})
		if left, err := s.Drain(); err != nil || left != 0 {
			r.failf("(c) drain over the first %d log bytes: %d left, %v", cut, left, err)
		}
	}
}

// modelSeeds are the fixed seeds tier-1 runs. Odd seeds keep three finished
// jobs in the registry, on one worker. Even seeds run two workers, keep every
// finished job and make every job its own tenant: two workers racing for a
// replayed queue make which job runs a flow and which rides it as a twin, and
// who finishes (and so is evicted) first, a coin toss the model cannot call.
var modelSeeds = []int64{1, 2, 3, 4, 5, 6}

func TestLifecycleModel(t *testing.T) {
	earlyReads, seen := 0, map[string]int{}
	for _, seed := range modelSeeds {
		r := &modelRun{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), parked: make(chan string), seen: seen}
		r.m = &model{workers: 2, queueCap: modelBaseQueue, retain: defaultRetainJobs, jobs: map[string]*mjob{}}
		if seed%2 == 1 {
			r.m.workers, r.m.retain = 1, modelRetain
		}
		r.boot()
		for r.op = 1; r.op <= 150; r.op++ {
			switch p := r.rng.Intn(100); {
			case p < 45:
				r.submit()
			case p < 62:
				r.cancel()
			case p < 88:
				r.release()
			case p < 96:
				r.abandon()
			default:
				r.drain()
			}
			r.check()
		}
		// Wind down: every flow is let through, so the log ends with every
		// job terminal and a clean shutdown.
		for r.pick(isRunning) != nil {
			r.op++
			r.release()
			r.check()
		}
		r.drain()
		r.check()
		if _, err := r.s.Drain(); err != nil {
			t.Fatal(err)
		}
		r.checkPrefixes()
		earlyReads += r.earlyReads
		seen["jobs evicted from a registry"] += r.m.evicted
		seen["jobs"] += len(r.m.order)
		seen["batch twins"] += r.m.twins
	}
	var exercised []string
	for what, n := range seen {
		exercised = append(exercised, fmt.Sprintf("%s ×%d", what, n))
	}
	sort.Strings(exercised)
	t.Logf("exercised: %s", strings.Join(exercised, ", "))
	// The hand-over to the follow-up that makes complete durable before it
	// is visible: these reads then answer 409 (or wait), and this count —
	// reachable only through the step hook — has to be zero.
	t.Logf("results read before their terminal record, then un-happened by a kill: %d (allowance of the visible-before-durable order)", earlyReads)
}
