package interp

import (
	"sort"

	"psaflow/internal/minic"
)

// Cost constants: virtual-clock cycles charged per operation, calibrated
// to a modern superscalar core executing scalar code (the paper's
// single-thread CPU reference). The absolute scale only matters relative
// to the device models in perfmodel, which consume the same counters.
const (
	CostAddSub = 1.0
	CostMul    = 1.0
	CostDivInt = 10.0
	CostDivF   = 8.0
	CostCmp    = 1.0
	CostLogic  = 1.0
	CostLoad   = 3.0
	CostStore  = 3.0
	CostLocal  = 0.5 // scalar register access
	CostBranch = 1.0
	CostCall   = 8.0
	CostSqrt   = 14.0
	CostExp    = 22.0
	CostLog    = 22.0
	CostPow    = 48.0
	CostTrig   = 24.0
	CostErf    = 30.0
	CostAbsMin = 2.0
	CostCast   = 1.0
	CostFastFn = 8.0 // GPU fast-math intrinsics (minic.Intrinsic.Fast)
)

// LoopProfile accumulates per-loop dynamic measurements, keyed by the loop
// node's ID. This is what the paper gathers by instrumenting loops with
// timers and executing the application.
type LoopProfile struct {
	ID      int
	Pos     minic.Pos
	Func    string  // enclosing function name
	Depth   int     // 1 = outermost
	Entries int64   // times the loop statement was entered
	Trips   int64   // total iterations executed
	Cycles  float64 // virtual cycles spent inside the loop (inclusive)
}

// AvgTrips returns mean iterations per entry.
func (lp *LoopProfile) AvgTrips() float64 {
	if lp.Entries == 0 {
		return 0
	}
	return float64(lp.Trips) / float64(lp.Entries)
}

// Traffic is byte traffic through one watched pointer parameter.
type Traffic struct {
	Param      string
	BytesIn    int64 // read by the kernel (host→device if offloaded)
	BytesOut   int64 // written by the kernel (device→host if offloaded)
	ElemReads  int64
	ElemWrites int64
}

// Profile is the dynamic measurement record of one execution.
type Profile struct {
	Cycles     float64 // total virtual cycles
	Flops      int64   // floating-point operations executed
	IntOps     int64
	LoadBytes  int64
	StoreBytes int64
	Loops      map[int]*LoopProfile
	// Measurements of the watch target (kernel analyses). The target is the
	// function WatchFunc (Config.Watch), or — in a run that named none —
	// the loop WatchLoop: the run's hotspot (Hotspot), measured as the
	// kernel transform.ExtractHotspot would outline from it, each entry of
	// the loop a call and its free pointer variables the pointer
	// parameters. Both zero: the run named no function and has no hotspot
	// loop, or only a partial record of it (some entry happened inside
	// another depth-1 loop's activation); the fields below are then empty.
	WatchFunc       string
	WatchLoop       int     // loop node ID
	WatchCalls      int64   // calls of the function; entries of the loop
	WatchCycles     float64 // cycles inside the target
	WatchFlops      int64   // flops inside the target
	WatchLoadBytes  int64   // bytes loaded inside the target
	WatchStoreBytes int64   // bytes stored inside the target
	// WatchSpecialFlops counts FLOPs contributed by special
	// (transcendental) builtins inside the target.
	WatchSpecialFlops int64
	ParamTraffic      map[string]*Traffic // per pointer-parameter traffic
	// Bufs lists the shape of every buffer an activation bound to a
	// pointer parameter, interned once per run in first-appearance order.
	// The profile keeps shapes, not the buffers: no consumer reads
	// contents, and a memoized result must not pin the run's arrays.
	Bufs []BufShape
	// Bindings records the distinct parameter→buffer assignments of the
	// activations in first-occurrence order (for dynamic alias analysis
	// and footprint sizing).
	Bindings []Binding
}

// BufShape is what a profile remembers of a bound buffer.
type BufShape struct {
	Name string
	Kind minic.BasicKind
	Len  int // element count
}

// ElemBytes returns the byte size of one element.
func (s BufShape) ElemBytes() int64 { return s.Kind.Size() }

// Binding is one distinct assignment of buffers to the watched
// function's pointer parameters.
type Binding struct {
	Params map[string]int // parameter name → index into Profile.Bufs
	Count  int            // watched calls that bound exactly this
}

func newProfile(watch string) *Profile {
	return &Profile{
		Loops:        make(map[int]*LoopProfile),
		WatchFunc:    watch,
		ParamTraffic: make(map[string]*Traffic),
	}
}

// Hotspot returns the outermost loop with the largest cycle share, and its
// fraction of total cycles. Returns nil if no loops ran.
func (p *Profile) Hotspot() (*LoopProfile, float64) {
	var best *LoopProfile
	for _, lp := range p.Loops {
		if lp.Depth != 1 {
			continue
		}
		if best == nil || lp.Cycles > best.Cycles ||
			(lp.Cycles == best.Cycles && lp.ID < best.ID) {
			best = lp
		}
	}
	if best == nil || p.Cycles == 0 {
		return best, 0
	}
	return best, best.Cycles / p.Cycles
}

// AliasPairs returns parameter-name pairs that were ever bound to the same
// buffer in a watched call — the dynamic pointer-alias result.
func (p *Profile) AliasPairs() [][2]string {
	seen := make(map[[2]string]bool)
	var out [][2]string
	for _, binding := range p.Bindings {
		names := make([]string, 0, len(binding.Params))
		for name := range binding.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				if binding.Params[names[i]] == binding.Params[names[j]] {
					key := [2]string{names[i], names[j]}
					if !seen[key] {
						seen[key] = true
						out = append(out, key)
					}
				}
			}
		}
	}
	return out
}

// BoundBuf returns the shape of the buffer param was bound to in the
// first binding that mentions it.
func (p *Profile) BoundBuf(param string) (BufShape, bool) {
	for _, binding := range p.Bindings {
		if i, ok := binding.Params[param]; ok {
			return p.Bufs[i], true
		}
	}
	return BufShape{}, false
}
