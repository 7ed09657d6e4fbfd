package interp_test

// The oracle of the loop-watching mode: a run that names no function to
// watch measures its hotspot loop as the kernel transform.ExtractHotspot
// would outline from it, so the record it publishes must equal what an
// explicit Watch of that kernel measures in the outlined program — and
// watching must not perturb the run itself.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/query"
	"psaflow/internal/transform"
)

// kernelRecord is every field the kernel analyses (tasks.PointerAnalysis,
// DataInOut, TripCount) read of a profile, with the kernel's loops in
// depth-first source order, which is how the two programs' loops match.
type kernelRecord struct {
	Calls                       int64
	Cycles                      float64
	Flops, Special, Load, Store int64
	Traffic                     map[string]interp.Traffic
	Bufs                        []interp.BufShape
	Bindings                    []interp.Binding
	Aliases                     [][2]string
	Loops                       [][2]int64 // entries, trips
}

func recordOf(p *interp.Profile, loops []minic.Stmt) kernelRecord {
	r := kernelRecord{
		Calls: p.WatchCalls, Cycles: p.WatchCycles, Flops: p.WatchFlops,
		Special: p.WatchSpecialFlops, Load: p.WatchLoadBytes, Store: p.WatchStoreBytes,
		Traffic: map[string]interp.Traffic{}, Bufs: p.Bufs, Bindings: p.Bindings,
		Aliases: p.AliasPairs(),
	}
	for name, t := range p.ParamTraffic {
		r.Traffic[name] = *t
	}
	for _, l := range loops {
		if lp := p.Loops[l.ID()]; lp != nil {
			r.Loops = append(r.Loops, [2]int64{lp.Entries, lp.Trips})
		} else {
			r.Loops = append(r.Loops, [2]int64{})
		}
	}
	return r
}

// loopByID finds the loop with the given node ID and its function.
func loopByID(prog *minic.Program, id int) (*minic.FuncDecl, minic.Stmt) {
	for _, fn := range prog.Funcs {
		var loop minic.Stmt
		minic.Walk(fn, func(n minic.Node) bool {
			if n.ID() == id && query.IsLoop(n) {
				loop = n.(minic.Stmt)
			}
			return loop == nil
		})
		if loop != nil {
			return fn, loop
		}
	}
	return nil, nil
}

// outlinedRecord outlines the loop the default run res of src published
// and returns what a run of the outlined program that watches the kernel
// records. ok is false when ExtractHotspot refuses the loop.
func outlinedRecord(t *testing.T, src string, cfg interp.Config, loopID int) (rec kernelRecord, err error, ok bool) {
	t.Helper()
	prog := minic.MustParse(src)
	host, loop := loopByID(prog, loopID)
	if loop == nil {
		t.Fatalf("published loop #%d is not a loop of the program", loopID)
	}
	kernel, xerr := transform.ExtractHotspot(prog, host, loop, "loopwatch_kernel")
	if xerr != nil {
		return kernelRecord{}, nil, false
	}
	cfg.Watch = kernel.Name
	res, err := interp.Run(prog, cfg)
	if err != nil {
		return kernelRecord{}, err, true
	}
	return recordOf(res.Prof, query.LoopsIn(kernel)), nil, true
}

// publishedRecord is the default run's side of the comparison.
func publishedRecord(prog *minic.Program, p *interp.Profile) kernelRecord {
	_, loop := loopByID(prog, p.WatchLoop)
	return recordOf(p, append([]minic.Stmt{loop}, query.InnerLoops(loop)...))
}

type loopWatchCase struct {
	name, src, entry string
	args             func() []interp.Value
	// want pins what the hand-written programs are there to cover.
	calls, bindings int
	aliases         [][2]string
	params          []string
}

func handWrittenLoopWatchCases() []loopWatchCase {
	dbl := func(name string, n int) interp.Value {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i%7) * 0.25
		}
		return interp.BufVal(interp.NewFloatBuffer(name, minic.Double, data))
	}
	three := func() []interp.Value {
		return []interp.Value{interp.IntVal(64), dbl("a", 64), dbl("b", 64), dbl("c", 64)}
	}
	return []loopWatchCase{
		{
			// The counter lives in a local array of the host: a free scalar
			// written in the loop would be live-out, which outlining refuses.
			name: "while hotspot, local array of the host free", entry: "app", args: three,
			src: `
void app(int n, double *a, double *b, double *c) {
    int at[1];
    at[0] = 0;
    while (at[0] < n) {
        b[at[0]] = a[at[0]] * 2.0 + sqrt(c[at[0]] + 1.0);
        at[0] = at[0] + 1;
    }
}`,
			calls: 1, bindings: 1, params: []string{"a", "at", "b", "c"},
		},
		{
			name: "hotspot in a helper called twice with different buffers", entry: "app", args: three,
			src: `
void scale(int n, double *x, double *y) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 3; j++) { y[i] = y[i] + x[i] * 3.0; }
    }
}
void app(int n, double *a, double *b, double *c) {
    scale(n, a, b);
    scale(n, b, c);
    c[0] = c[0] + 1.0;
}`,
			calls: 2, bindings: 2, params: []string{"x", "y"},
		},
		{
			// The arithmetic before the loop is pending in the VM's frame
			// when the scope opens; the record must not absorb it.
			name: "two free names on one buffer", entry: "app", args: three,
			src: `
void app(int n, double *a, double *b, double *c) {
    double *q = a;
    double bias = (double)n * 0.5 + c[0] * c[1];
    for (int i = 1; i < n; i++) { q[i] = a[i - 1] + b[i] + bias; }
}`,
			calls: 1, bindings: 1, aliases: [][2]string{{"a", "q"}}, params: []string{"a", "b", "q"},
		},
		{
			name: "hotspot calls a function that touches a bound buffer", entry: "app", args: three,
			src: `
double bump(double *v, int i) {
    v[i] = v[i] + 1.0;
    double s = 0.0;
    for (int k = 0; k < 4; k++) { s += v[k]; }
    return s;
}
void app(int n, double *a, double *b, double *c) {
    for (int r = 0; r < 2; r++) { c[r] = 0.0; }
    for (int i = 0; i < n; i++) { b[i] = bump(a, i) + expf(c[i]); }
}`,
			calls: 1, bindings: 1, params: []string{"a", "b", "c"},
		},
	}
}

// parentRuns are the default run's totals, step count and loop table for
// the five bundled applications as the commit before the loop-watching
// mode produced them (its default run watched the entry function): the
// mode must not move one of them. Loop rows are "id entries trips cycles".
var parentRuns = map[string]struct {
	steps                      int64
	cycles                     float64
	flops, intops, load, store int64
	loops                      string
}{
	"nbody": {6369921, 6.1296595e+06, 1457924, 742658, 3201024, 36864, `
11 1 768 54532.5
103 2 512 17927
160 1 256 8715.5
222 1 768 13828.5
257 1 256 6.0035875e+06
272 256 65536 5.99744e+06
402 1 256 30979.5`},
	"kmeans": {5854819, 4.766057e+06, 508032, 958889, 2703808, 312128, `
10 1 16384 589828.5
55 1 32 1107
106 1 4096 407555.5
119 4096 16384 372736
159 1 8 63
174 1 4096 63491.5
191 1 8 87
220 1 4096 3.2866695e+06
233 4096 32768 3.247754e+06
244 32768 131072 2.981888e+06
296 1 8 407
311 8 32 344
330 1 4096 415747.5
343 4096 16384 348160
374 1 8 1047
390 8 32 968`},
	"adpredictor": {1647197, 2.4376315e+06, 702496, 104491, 262144, 57440, `
11 1 12288 430084.5
53 1 6 390
134 1 2048 81959
184 1 2048 22531.5
212 1 2048 1.9025955e+06
225 2048 12288 1.861632e+06`},
	"rushlarsen": {10639488, 1.78961225e+07, 5273645, 684098, 6230016, 1069856, `
15 1 256 8963.5
58 1 5120 174084.5
99 1 20 3173
284 1 256 2563.5
310 1 5120 87044.5
352 1 256 1.76202275e+07
365 256 6400 1.7616896e+07
376 6400 128000 1.75552e+07`},
	"bezier": {6481307, 1.36209305e+07, 3825076, 907811, 2802256, 29920, `
10 1 243 9606.5
64 1 17 2918.5
81 17 272 2771
100 1 16 3855
109 16 136 3796
155 1 991 73341.5
244 1 3072 38406
274 1 1024 1.3492741e+07
315 1024 9216 1.3417472e+07
346 9216 82944 1.234944e+07`},
}

func loopTable(p *interp.Profile) string {
	var sb strings.Builder
	ids := make([]int, 0, len(p.Loops))
	for id := range p.Loops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		lp := p.Loops[id]
		fmt.Fprintf(&sb, "\n%d %d %d %v", id, lp.Entries, lp.Trips, lp.Cycles)
	}
	return sb.String()
}

func TestLoopWatchEqualsOutlinedKernel(t *testing.T) {
	var cases []loopWatchCase
	for _, b := range bench.All() {
		cases = append(cases,
			loopWatchCase{name: b.Name, src: b.Source, entry: b.Entry, args: b.MakeArgs},
			loopWatchCase{name: b.Name + " salted", entry: b.Entry, args: b.MakeArgs,
				src: b.Source + "\nint bench_salt_7(int x) { return x + 7; }\n"})
	}
	cases = append(cases, handWrittenLoopWatchCases()...)
	for _, c := range cases {
		c := c
		for _, e := range engines {
			e := e
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				prog := minic.MustParse(c.src)
				cfg := e.cfg(interp.Config{Entry: c.entry})
				cfg.Args = c.args()
				res, err := interp.Run(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := res.Prof
				if p.WatchLoop == 0 || p.WatchFunc != "" {
					t.Fatalf("default run published WatchLoop=%d WatchFunc=%q, want its hotspot loop", p.WatchLoop, p.WatchFunc)
				}
				if hs, _ := p.Hotspot(); hs.ID != p.WatchLoop {
					t.Fatalf("WatchLoop = %d, Hotspot() = %d", p.WatchLoop, hs.ID)
				}

				// The published record is the outlined kernel's.
				got := publishedRecord(prog, p)
				cfg.Args = c.args()
				want, err, ok := outlinedRecord(t, c.src, cfg, p.WatchLoop)
				if !ok || err != nil {
					t.Fatalf("outlining the hotspot: accepted=%t, run error %v", ok, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("published record differs from the kernel-watched run of the outlined program:\n got  %+v\n want %+v", got, want)
				}

				// Watching does not perturb the run: the totals are those of
				// a run that watches the entry function, the old default.
				cfg.Args, cfg.Watch = c.args(), c.entry
				entry, err := interp.Run(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ep := entry.Prof
				if res.Ret != entry.Ret || res.Steps != entry.Steps || !reflect.DeepEqual(res.Output, entry.Output) ||
					p.Cycles != ep.Cycles || p.Flops != ep.Flops || p.IntOps != ep.IntOps ||
					p.LoadBytes != ep.LoadBytes || p.StoreBytes != ep.StoreBytes || !reflect.DeepEqual(p.Loops, ep.Loops) {
					t.Errorf("default run differs from the entry-watched run outside the watch fields:\n default %+v steps %d\n entry   %+v steps %d",
						*p, res.Steps, *ep, entry.Steps)
				}
				if want, pinned := parentRuns[c.name]; pinned {
					if res.Steps != want.steps || p.Cycles != want.cycles || p.Flops != want.flops || p.IntOps != want.intops ||
						p.LoadBytes != want.load || p.StoreBytes != want.store || loopTable(p) != want.loops ||
						res.Ret.K != interp.KVoid || len(res.Output) != 1 {
						t.Errorf("default run moved from the recorded parent run:\n got  steps=%d %+v%s\n want %+v", res.Steps, *p, loopTable(p), want)
					}
				}

				// What the hand-written programs are there to cover.
				if c.params != nil {
					var params []string
					for name := range p.ParamTraffic {
						params = append(params, name)
					}
					sort.Strings(params)
					if int(p.WatchCalls) != c.calls || len(p.Bindings) != c.bindings ||
						!reflect.DeepEqual(p.AliasPairs(), c.aliases) || !reflect.DeepEqual(params, c.params) {
						t.Errorf("calls=%d bindings=%d aliases=%v params=%v, want %d %d %v %v",
							p.WatchCalls, len(p.Bindings), p.AliasPairs(), params, c.calls, c.bindings, c.aliases, c.params)
					}
				}
			})
		}
	}
}
