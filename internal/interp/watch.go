package interp

import (
	"sync/atomic"

	"psaflow/internal/minic"
	"psaflow/internal/query"
)

// Watch machinery shared by both engines: what a run records about its
// watch target, and the activation boundaries (enterWatch / exitWatch)
// that attribute traffic and fold the run totals into that record.

// watchRec is the measurement record of one watch target: the function
// named by Config.Watch or, in a run that names none, one hotspot
// candidate (a depth-1 loop). It lives on the machine while the run
// executes; Run publishes one record into the profile's Watch* fields.
type watchRec struct {
	calls        int64
	cycles       float64
	flops        int64
	loadBytes    int64
	storeBytes   int64
	specialFlops int64
	traffic      map[string]*Traffic
	bufs         []BufShape
	bindings     []Binding
	// Binding index of enterWatch: the hash of the first recorded binding
	// and, once there is a second, hash → index for the rest.
	firstBinding  uint64
	laterBindings map[uint64]int

	// A candidate's record only. params are the loop's free pointer
	// variables (candParams), resolved by the tree-walker on first entry;
	// partial marks a record that misses an entry of its loop because the
	// entry happened inside another candidate's activation.
	params  []*minic.Param
	partial bool
}

func newWatchRec() *watchRec {
	return &watchRec{traffic: make(map[string]*Traffic)}
}

// publish copies the record into p's watch fields.
func (r *watchRec) publish(p *Profile) {
	p.WatchCalls = r.calls
	p.WatchCycles = r.cycles
	p.WatchFlops = r.flops
	p.WatchLoadBytes = r.loadBytes
	p.WatchStoreBytes = r.storeBytes
	p.WatchSpecialFlops = r.specialFlops
	p.ParamTraffic = r.traffic
	p.Bufs = r.bufs
	p.Bindings = r.bindings
}

// candParams lists the free pointer variables of loop, a statement of fn,
// as the pointer parameters transform.ExtractHotspot would give the
// outlined kernel, in its order. Scalar parameters are left out: a watch
// record keeps nothing of them.
func candParams(fn *minic.FuncDecl, loop minic.Stmt) []*minic.Param {
	free := query.FreeVars(fn, loop)
	backing := make([]minic.Param, 0, len(free))
	params := make([]*minic.Param, 0, len(free)) // non-nil: the tree-walker tells "none" from "not resolved yet"
	for _, fv := range free {
		if fv.Type.Ptr {
			backing = append(backing, minic.Param{Type: fv.Type, Name: fv.Name})
			params = append(params, &backing[len(backing)-1])
		}
	}
	return params
}

// candidates is the state of a run that watches its hotspot candidates:
// the scratch record of every depth-1 loop entered so far, by loop ID; the
// paramOf maps the active candidate's open scopes restore when they close
// (more than one only under recursion); and the scratch for a scope's
// argument values.
type candidates struct {
	recs map[int]*watchRec
	prev []map[*Buffer]string
	args []Value
}

// candidate returns the record to open a watch scope on for an entry of
// the depth-1 loop lp, or nil when another candidate is active: the
// outlined form of that other loop would contain this entry, and this
// loop's own record now misses it.
func (m *machine) candidate(lp *LoopProfile) *watchRec {
	rec := m.cands.recs[lp.ID]
	if rec == nil {
		rec = newWatchRec()
		m.cands.recs[lp.ID] = rec
	}
	if m.candLoop != nil && m.candLoop != lp {
		rec.partial = true
		return nil
	}
	return rec
}

// openCandidate opens a watch scope on lp's record with params, the loop's
// free pointer variables (candParams), bound to args. Leaving a loop that
// is m.candLoop closes its innermost scope (exitCandidate).
func (m *machine) openCandidate(lp *LoopProfile, rec *watchRec, params []*minic.Param, args []Value) {
	m.candLoop = lp
	m.cands.prev = append(m.cands.prev, m.enterWatch(rec, params, args))
}

// exitCandidate closes the innermost scope of the active candidate.
func (m *machine) exitCandidate() {
	n := len(m.cands.prev) - 1
	m.exitWatch(m.cands.prev[n])
	m.cands.prev = m.cands.prev[:n]
	if n == 0 {
		m.candLoop = nil
	}
}

// enterCandidateTW is the tree-walker's entry into the depth-1 loop of
// profile lp: the loop's free pointer variables, looked up in the frame,
// are the watch parameters. It reports whether a scope opened. The VM's
// counterpart reads registers (bytecode_exec.go).
func (m *machine) enterCandidateTW(fr *frame, loop minic.Stmt, lp *LoopProfile) bool {
	rec := m.candidate(lp)
	if rec == nil {
		return false
	}
	if rec.params == nil {
		rec.params = candParams(fr.fn, loop)
	}
	args := m.cands.args[:0]
	for _, p := range rec.params {
		args = append(args, *fr.lookup(p.Name))
	}
	m.cands.args = args
	m.openCandidate(lp, rec, rec.params, args)
	return true
}

// publishWatch copies what the run recorded of its watch target into the
// profile: the watched function's record, or — nothing named — the record
// of the loop Profile.Hotspot picks, with WatchLoop naming it. A partial
// record is not published; the Watch* fields then stay empty.
func (m *machine) publishWatch() {
	if m.cands == nil {
		m.rec.publish(m.prof)
		return
	}
	if hs, _ := m.prof.Hotspot(); hs != nil {
		if rec := m.cands.recs[hs.ID]; rec != nil && !rec.partial {
			m.prof.WatchLoop = hs.ID
			rec.publish(m.prof)
		}
	}
}

// enterWatch begins an activation of the watch target rec — a call of the
// watched function, or an entry of a hotspot candidate with its free
// pointer variables as params: records the call, the parameter→buffer
// binding for alias observation, and swaps in the buffer→parameter map
// for traffic attribution. Returns the previous map for exitWatch.
func (m *machine) enterWatch(rec *watchRec, params []*minic.Param, args []Value) map[*Buffer]string {
	m.rec = rec
	rec.calls++
	pm := make(map[*Buffer]string)
	// The binding is hashed as one shape index per parameter position (-1
	// for a scalar), so a repeat is found without building its map.
	hash := uint64(14695981039346656037) // FNV-1a
	for i, p := range params {
		shape := -1
		if args[i].K == KBuf {
			pm[args[i].Buf] = p.Name
			if _, ok := rec.traffic[p.Name]; !ok {
				rec.traffic[p.Name] = &Traffic{Param: p.Name}
			}
			shape = rec.internShape(args[i].Buf, len(params))
		}
		hash = (hash ^ uint64(shape+1)) * 1099511628211
	}
	if bi, ok := rec.bindingAt(hash); ok && rec.bindings[bi].assigns(params, args) {
		rec.bindings[bi].Count++
	} else {
		rec.addBinding(params, args, hash)
	}
	prev := m.paramOf
	m.paramOf = pm
	m.watchEpoch = nextWatchEpoch()
	if m.watchDepth == 0 {
		m.watchCycBase = m.prof.Cycles
		m.watchFlopBase = m.prof.Flops
		m.watchLoadBase = m.prof.LoadBytes
		m.watchStoreBase = m.prof.StoreBytes
		m.watchSpecialBase = m.specialFlops
	}
	m.watchDepth++
	return prev
}

// internShape returns buf's index in r.bufs, recording its shape the first
// time the record binds it. The index is cached on the buffer, tagged with
// the record it belongs to, so a buffer bound under another record, or
// reused by a later run, is interned afresh. room sizes bufs on first use.
func (r *watchRec) internShape(buf *Buffer, room int) int {
	if buf.shapeIn != r {
		if r.bufs == nil {
			r.bufs = make([]BufShape, 0, room)
		}
		buf.shapeIn, buf.shape = r, len(r.bufs)
		r.bufs = append(r.bufs, BufShape{Name: buf.Name, Kind: buf.Kind, Len: buf.Len()})
	}
	return buf.shape
}

// assigns reports whether b binds exactly the buffers among args (already
// interned by this call) to params.
func (b *Binding) assigns(params []*minic.Param, args []Value) bool {
	n := 0
	for i, p := range params {
		if args[i].K != KBuf {
			continue
		}
		if shape, ok := b.Params[p.Name]; !ok || shape != args[i].Buf.shape {
			return false
		}
		n++
	}
	return n == len(b.Params)
}

// bindingAt returns the index of the binding recorded under hash. The
// first binding — for most runs the only one — is found by its hash
// alone; the index map exists only once a run has seen a second.
func (r *watchRec) bindingAt(hash uint64) (int, bool) {
	if len(r.bindings) > 0 && hash == r.firstBinding {
		return 0, true
	}
	bi, ok := r.laterBindings[hash]
	return bi, ok
}

// addBinding records a binding seen for the first time. A hash collision,
// or a parameter list that repeats a name, fails assigns and lands here
// again: the binding is then recorded twice, never merged into another.
func (r *watchRec) addBinding(params []*minic.Param, args []Value, hash uint64) {
	bound := make(map[string]int)
	for i, p := range params {
		if args[i].K == KBuf {
			bound[p.Name] = args[i].Buf.shape
		}
	}
	if len(r.bindings) == 0 {
		r.firstBinding = hash
	} else {
		if r.laterBindings == nil {
			r.laterBindings = make(map[uint64]int)
		}
		r.laterBindings[hash] = len(r.bindings)
	}
	r.bindings = append(r.bindings, Binding{Params: bound, Count: 1})
}

// exitWatch ends an activation of the current watch target. Leaving the
// outermost one folds the totals accumulated during the activation into
// the record (nested activations are already covered by the outermost
// delta, exactly as per-charge accounting would count them).
func (m *machine) exitWatch(prev map[*Buffer]string) {
	m.watchDepth--
	m.paramOf = prev
	m.watchEpoch = nextWatchEpoch()
	if m.watchDepth == 0 {
		m.rec.cycles += m.prof.Cycles - m.watchCycBase
		m.rec.flops += m.prof.Flops - m.watchFlopBase
		m.rec.loadBytes += m.prof.LoadBytes - m.watchLoadBase
		m.rec.storeBytes += m.prof.StoreBytes - m.watchStoreBase
		m.rec.specialFlops += m.specialFlops - m.watchSpecialBase
	}
}

// watchEpochCounter hands out globally unique watch epochs so that a
// Buffer's cached traffic pointer can never be mistaken for one resolved
// under a different paramOf map (even across machines reusing a buffer).
var watchEpochCounter atomic.Uint64

func nextWatchEpoch() uint64 { return watchEpochCounter.Add(1) }

// trafficOf returns the traffic accumulator for buf under the innermost
// watched call, or nil if buf is not bound to a watched parameter. The
// two map lookups (buffer→param name, name→accumulator) only run once
// per buffer per watch epoch; element accesses in hot loops hit the
// cache on the buffer itself.
func (m *machine) trafficOf(buf *Buffer) *Traffic {
	if buf.trafEpoch != m.watchEpoch {
		buf.trafEpoch = m.watchEpoch
		if pname, ok := m.paramOf[buf]; ok {
			buf.traf = m.rec.traffic[pname]
		} else {
			buf.traf = nil
		}
	}
	return buf.traf
}
