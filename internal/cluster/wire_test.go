package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// sampleResult builds a result exercising every wire feature: loops,
// traffic, shared and distinct buffer bindings, output, an exact
// awkward float.
func sampleResult() *interp.Result {
	prof := &interp.Profile{
		Cycles:     12345.6789012345,
		Flops:      1 << 40,
		IntOps:     7,
		LoadBytes:  4096,
		StoreBytes: 512,
		Loops: map[int]*interp.LoopProfile{
			3: {ID: 3, Pos: minic.Pos{Line: 10, Col: 2}, Func: "main", Depth: 1, Entries: 5, Trips: 500, Cycles: 0.1 + 0.2},
			7: {ID: 7, Pos: minic.Pos{Line: 20, Col: 4}, Func: "kern", Depth: 2, Entries: 500, Trips: 64000, Cycles: math.Nextafter(1, 2)},
		},
		WatchFunc:         "kern",
		WatchCalls:        5,
		WatchCycles:       9999.25,
		WatchFlops:        123,
		WatchLoadBytes:    456,
		WatchStoreBytes:   789,
		WatchSpecialFlops: 11,
		ParamTraffic: map[string]*interp.Traffic{
			"pos": {Param: "pos", BytesIn: 1024, BytesOut: 1024, ElemReads: 128, ElemWrites: 128},
			"vel": {Param: "vel", BytesIn: 1024, BytesOut: 0, ElemReads: 128},
		},
		Bufs: []interp.BufShape{
			{Name: "pos", Kind: minic.Double, Len: 128},
			{Name: "vel", Kind: minic.Double, Len: 128},
			{Name: "idx", Kind: minic.Int, Len: 16},
		},
		Bindings: []interp.Binding{
			{Params: map[string]int{"a": 0, "b": 1, "c": 2}, Count: 2},
			{Params: map[string]int{"a": 0, "b": 0, "c": 2}, Count: 1}, // a and b alias here
		},
	}
	return &interp.Result{
		Ret:    interp.Value{K: interp.KDouble, F: 0.30000000000000004},
		Prof:   prof,
		Steps:  987654321,
		Output: []string{"line one", "line two"},
	}
}

// roundTrip encodes and decodes res and requires the copy to be exact.
func roundTrip(t *testing.T, label string, res *interp.Result) {
	t.Helper()
	payload, sum, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	got, err := DecodeResult(payload, sum)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("%s: result changed on the wire:\ngot  %+v\n     %+v\nwant %+v\n     %+v", label, got, got.Prof, res, res.Prof)
	}
}

func TestWireRoundTrip(t *testing.T) {
	res := sampleResult()
	roundTrip(t, "sample", res)
	// The same record published by a run that watched its hotspot loop.
	loopWatched := sampleResult()
	loopWatched.Prof.WatchFunc, loopWatched.Prof.WatchLoop = "", 3
	roundTrip(t, "loop-watched", loopWatched)
	// AliasPairs — the consumer of binding identity — reads the indices.
	if got := res.Prof.AliasPairs(); !reflect.DeepEqual(got, [][2]string{{"a", "b"}}) {
		t.Errorf("AliasPairs: got %v want [[a b]]", got)
	}
}

// fillRecorder is a core.RunPeer that never has a result and keeps every
// one published to it: exactly what a node would put on the wire.
type fillRecorder struct {
	fills map[core.RunKey]*interp.Result
}

func (f *fillRecorder) FetchRun(core.RunKey) (*interp.Result, bool) { return nil, false }
func (f *fillRecorder) FillRun(key core.RunKey, res *interp.Result) { f.fills[key] = res }

// hotspotAndPointer runs the front of the flow on d: the hotspot run, the
// outlining, and the first of the kernel analyses.
func hotspotAndPointer(t *testing.T, ctx *core.Context, d *core.Design) {
	t.Helper()
	for _, task := range []core.Task{tasks.IdentifyHotspots, tasks.ExtractHotspot, tasks.PointerAnalysis} {
		if err := task.Run(ctx, d); err != nil {
			t.Fatalf("%s: %s: %v", d.Name, task.Name(), err)
		}
	}
}

// TestWireRoundTripBundledApps sends both kinds of run of every bundled
// application over the wire — the hotspot run, which carries the record of
// its hotspot loop, and a kernel-watched run of the outlined program, which
// a flow makes once it cannot use that record (here: it is taken away) — a
// profile holds nothing the codec drops, so the copy is exact.
func TestWireRoundTripBundledApps(t *testing.T) {
	for _, b := range bench.All() {
		peer := &fillRecorder{fills: map[core.RunKey]*interp.Result{}}
		runs := core.NewRunCache()
		runs.SetPeer(peer)
		ctx := &core.Context{Workload: bench.Workload{B: b}, Runs: runs}
		d := core.NewDesign(b.Name, b.Parse())
		hotspotAndPointer(t, ctx, d)
		if len(peer.fills) != 1 {
			t.Errorf("%s: %d runs published before the record was taken away, want the hotspot run alone", b.Name, len(peer.fills))
		}
		d.HotspotLoops = nil
		if err := tasks.PointerAnalysis.Run(ctx, d); err != nil {
			t.Fatalf("%s: pointer analysis without the record: %v", b.Name, err)
		}
		var kinds int
		for key, res := range peer.fills {
			roundTrip(t, b.Name+" watch="+key.Watch, res)
			switch {
			case key.Watch == d.Kernel && res.Prof.WatchLoop == 0:
				kinds |= 1
			case key.Watch == b.Entry && res.Prof.WatchLoop == d.Report.HotspotLoopID:
				kinds |= 2
			}
			if len(res.Prof.Bindings) == 0 || len(res.Prof.Bufs) == 0 {
				t.Errorf("%s: run watch=%s recorded no bindings", b.Name, key.Watch)
			}
		}
		if kinds != 3 || len(peer.fills) != 2 {
			t.Errorf("%s: published runs %v, want the loop-watching hotspot run and the kernel-watched run", b.Name, peer.fills)
		}
	}
}

// olderPeer is a core.RunPeer serving results as a peer built before
// profiles carried watch_loop would: what it was filled with, minus the
// field.
type olderPeer struct {
	t     *testing.T
	fills map[core.RunKey]*interp.Result
}

func (p *olderPeer) FillRun(key core.RunKey, res *interp.Result) { p.fills[key] = res }
func (p *olderPeer) FetchRun(key core.RunKey) (*interp.Result, bool) {
	res, ok := p.fills[key]
	if !ok {
		return nil, false
	}
	payload, _, err := EncodeResult(res)
	if err != nil {
		p.t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(payload, &generic); err != nil {
		p.t.Fatal(err)
	}
	delete(generic["prof"].(map[string]any), "watch_loop")
	if payload, err = json.Marshal(generic); err != nil {
		p.t.Fatal(err)
	}
	old, err := DecodeResult(payload, Checksum(payload))
	if err != nil {
		p.t.Fatal(err)
	}
	return old, true
}

// TestHotspotRunFromOlderPeer: a hotspot run fetched from a peer whose
// payload has no watch_loop decodes to WatchLoop 0, which a flow reads as
// "no record of the kernel": it runs the outlined program, as every flow
// did before, and learns the same.
func TestHotspotRunFromOlderPeer(t *testing.T) {
	b := bench.All()[0]
	front := func(runs *core.RunCache) *core.Design {
		d := core.NewDesign(b.Name, b.Parse())
		hotspotAndPointer(t, &core.Context{Workload: bench.Workload{B: b}, Runs: runs}, d)
		for _, task := range []core.Task{tasks.DataInOut, tasks.TripCount} {
			if err := task.Run(&core.Context{Workload: bench.Workload{B: b}, Runs: runs}, d); err != nil {
				t.Fatalf("%s: %v", task.Name(), err)
			}
		}
		return d
	}
	peer := &olderPeer{t: t, fills: map[core.RunKey]*interp.Result{}}
	first := core.NewRunCache()
	first.SetPeer(peer)
	direct := front(first)
	if direct.HotspotProf == nil || len(peer.fills) != 1 {
		t.Fatalf("first flow: kept profile %v, %d runs published; want one run serving the analyses", direct.HotspotProf, len(peer.fills))
	}
	second := core.NewRunCache() // a node that has to ask the peer
	second.SetPeer(peer)
	viaPeer := front(second)
	if viaPeer.HotspotProf != nil {
		t.Error("a profile without watch_loop was kept as the kernel's record")
	}
	if len(peer.fills) != 2 {
		t.Errorf("%d runs published after the second flow, want the kernel-watched run added", len(peer.fills))
	}
	if !reflect.DeepEqual(viaPeer.Report, direct.Report) {
		t.Errorf("reports differ:\n via older peer %+v\n direct         %+v", viaPeer.Report, direct.Report)
	}
}

// parentPayload is EncodeResult(sampleResult()) as the commit before
// profiles recorded shapes produced it (it interned buffers and
// de-duplicated bindings in the codec). The JSON did not change: what
// that version encodes decodes here, and what this one encodes is the
// same bytes, so it decodes there.
const (
	parentPayload = `{"ret":{"k":4,"f":0.30000000000000004},"steps":987654321,"output":["line one","line two"],"prof":{"cycles":12345.6789012345,"flops":1099511627776,"int_ops":7,"load_bytes":4096,"store_bytes":512,"loops":[{"id":3,"line":10,"col":2,"func":"main","depth":1,"entries":5,"trips":500,"cycles":0.3},{"id":7,"line":20,"col":4,"func":"kern","depth":2,"entries":500,"trips":64000,"cycles":1.0000000000000002}],"watch_func":"kern","watch_calls":5,"watch_cycles":9999.25,"watch_flops":123,"watch_load_bytes":456,"watch_store_bytes":789,"watch_special_flops":11,"traffic":[{"param":"pos","bytes_in":1024,"bytes_out":1024,"elem_reads":128,"elem_writes":128},{"param":"vel","bytes_in":1024,"bytes_out":0,"elem_reads":128,"elem_writes":0}],"bufs":[{"name":"pos","kind":4,"len":128},{"name":"vel","kind":4,"len":128},{"name":"idx","kind":2,"len":16}],"bindings":[{"params":{"a":0,"b":1,"c":2},"count":2},{"params":{"a":0,"b":0,"c":2},"count":1}]}}`
	parentSum     = "56ad942dc98db51236443858bedd0d776c38799ebc0c0a419fdd3cdab79d2c62"
)

func TestWireParentFixture(t *testing.T) {
	got, err := DecodeResult([]byte(parentPayload), parentSum)
	if err != nil {
		t.Fatalf("decode parent payload: %v", err)
	}
	if want := sampleResult(); !reflect.DeepEqual(got, want) {
		t.Errorf("parent payload decodes to\n%+v %+v\nwant\n%+v %+v", got, got.Prof, want, want.Prof)
	}
	payload, sum, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != parentPayload || sum != parentSum {
		t.Errorf("encoding changed:\ngot  %s\nwant %s", payload, parentPayload)
	}
}

func TestWireDeterministic(t *testing.T) {
	// Same result encodes to identical bytes every time (map ordering
	// must not leak in) — the checksum depends on it.
	a, sumA, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, sumB, err := EncodeResult(sampleResult())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) || sumA != sumB {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

func TestWireRejects(t *testing.T) {
	if _, _, err := EncodeResult(nil); err == nil {
		t.Error("nil result encoded")
	}
	buf := interp.NewIntBuffer("x", make([]int64, 4))
	if _, _, err := EncodeResult(&interp.Result{Ret: interp.Value{K: interp.KBuf, Buf: buf}}); err == nil {
		t.Error("buffer-valued result encoded")
	}
	if _, _, err := EncodeResult(&interp.Result{Prof: &interp.Profile{Cycles: math.NaN()}}); err == nil {
		t.Error("NaN cycles encoded (JSON cannot carry NaN)")
	}
	payload, sum, err := EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(payload, "deadbeef"); err == nil {
		t.Error("checksum mismatch not rejected")
	}
	tampered := bytes.Replace(payload, []byte("line one"), []byte("line 0ne"), 1)
	if _, err := DecodeResult(tampered, sum); err == nil {
		t.Error("tampered payload not rejected")
	}

	// Well-formed JSON with a correct checksum whose binding section no
	// run could have produced. The two huge lengths used to reach
	// make([]float64, len): one panicked in makeslice, the other ended the
	// process out of memory — from a 200-byte peer fill.
	hostile := []struct {
		name, prof string
		accepted   int64 // length of the one shape, when the payload is not rejected
	}{
		{"negative length", `"bufs":[{"name":"x","kind":4,"len":-1}]`, 0},
		{"length past makeslice", `"bufs":[{"name":"x","kind":4,"len":4611686018427387904}]`, 0},
		{"length past memory", `"bufs":[{"name":"x","kind":4,"len":30000000000}],"bindings":[{"params":{"a":0},"count":1}]`, 30000000000},
		{"index past bufs", `"bufs":[{"name":"x","kind":4,"len":8}],"bindings":[{"params":{"a":1},"count":1}]`, 0},
		{"negative index", `"bufs":[{"name":"x","kind":4,"len":8}],"bindings":[{"params":{"a":-1},"count":1}]`, 0},
		{"zero repeat count", `"bufs":[{"name":"x","kind":4,"len":8}],"bindings":[{"params":{"a":0},"count":0}]`, 0},
		{"huge repeat count", `"bufs":[{"name":"x","kind":4,"len":8}],"bindings":[{"params":{"a":0},"count":1048577}]`, 0},
		{"negative watched loop", `"loops":[{"id":-3,"line":1,"col":1,"func":"f","depth":1,"entries":1,"trips":1,"cycles":1}],"watch_loop":-3`, 0},
		{"watched loop not among the loops", `"loops":[{"id":3,"line":1,"col":1,"func":"f","depth":1,"entries":1,"trips":1,"cycles":1}],"watch_loop":4`, 0},
	}
	for _, h := range hostile {
		payload := []byte(`{"ret":{"k":0},"steps":1,"prof":{"cycles":1,"flops":0,"int_ops":0,"load_bytes":0,"store_bytes":0,` + h.prof + `}}`)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := DecodeResult(payload, Checksum(payload))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", h.name, grew)
		}
		switch {
		case h.accepted == 0:
			if err == nil {
				t.Errorf("%s: not rejected", h.name)
			}
		case err != nil:
			t.Errorf("%s: %v, want it decoded as a shape", h.name, err)
		default:
			if buf, ok := res.Prof.BoundBuf("a"); !ok || int64(buf.Len) != h.accepted {
				t.Errorf("%s: bound shape %+v %t, want length %d", h.name, buf, ok, h.accepted)
			}
		}
	}
}

func TestRunKeyID(t *testing.T) {
	a := RunKeyID(1, "nbody", "main", "kern")
	if len(a) != 64 {
		t.Fatalf("key ID length %d, want 64 hex chars", len(a))
	}
	if a != RunKeyID(1, "nbody", "main", "kern") {
		t.Error("RunKeyID not deterministic")
	}
	if a == RunKeyID(2, "nbody", "main", "kern") || a == RunKeyID(1, "nbody", "main", "") {
		t.Error("distinct keys collide")
	}
}
