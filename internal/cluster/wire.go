package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// Wire form of a profiled interp.Result for the distributed run cache.
//
// The hard requirement is determinism: a result that crossed the wire
// must drive every downstream analysis to byte-identical designs. Two
// properties make that work. First, every field a consumer reads —
// profile scalars, loop profiles, per-parameter traffic, output lines,
// the return value — round-trips exactly (Go's encoding/json emits
// float64 with enough digits to reparse bit-for-bit). Second, a profile
// already holds its bindings in wire form: interp records each bound
// buffer once as a shape (name, kind, len) and each distinct binding as
// parameter → shape index with a repeat count, in first-occurrence
// order, so two parameters bound to one buffer carry one index and
// AliasPairs sees exactly the aliasing the run observed. The codec
// copies those fields and, on decode, range-checks them; nothing is
// allocated from a length on the wire. Decode(Encode(r)) is
// reflect.DeepEqual to r.

// wireValue carries Result.Ret. Buffer returns are not encodable (see
// EncodeResult); Buf stays nil on decode.
type wireValue struct {
	K int     `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	B bool    `json:"b,omitempty"`
}

type wireLoop struct {
	ID      int     `json:"id"`
	Line    int     `json:"line"`
	Col     int     `json:"col"`
	Func    string  `json:"func"`
	Depth   int     `json:"depth"`
	Entries int64   `json:"entries"`
	Trips   int64   `json:"trips"`
	Cycles  float64 `json:"cycles"`
}

type wireTraffic struct {
	Param      string `json:"param"`
	BytesIn    int64  `json:"bytes_in"`
	BytesOut   int64  `json:"bytes_out"`
	ElemReads  int64  `json:"elem_reads"`
	ElemWrites int64  `json:"elem_writes"`
}

// wireBuf is one interp.BufShape.
type wireBuf struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
	Len  int    `json:"len"`
}

// wireBinding is one interp.Binding.
type wireBinding struct {
	Params map[string]int `json:"params"`
	Count  int            `json:"count"`
}

type wireProfile struct {
	Cycles            float64       `json:"cycles"`
	Flops             int64         `json:"flops"`
	IntOps            int64         `json:"int_ops"`
	LoadBytes         int64         `json:"load_bytes"`
	StoreBytes        int64         `json:"store_bytes"`
	Loops             []wireLoop    `json:"loops,omitempty"`
	WatchFunc         string        `json:"watch_func,omitempty"`
	WatchLoop         int           `json:"watch_loop,omitempty"`
	WatchCalls        int64         `json:"watch_calls,omitempty"`
	WatchCycles       float64       `json:"watch_cycles,omitempty"`
	WatchFlops        int64         `json:"watch_flops,omitempty"`
	WatchLoadBytes    int64         `json:"watch_load_bytes,omitempty"`
	WatchStoreBytes   int64         `json:"watch_store_bytes,omitempty"`
	WatchSpecialFlops int64         `json:"watch_special_flops,omitempty"`
	Traffic           []wireTraffic `json:"traffic,omitempty"`
	Bufs              []wireBuf     `json:"bufs,omitempty"`
	Bindings          []wireBinding `json:"bindings,omitempty"`
}

type wireResult struct {
	Ret    wireValue    `json:"ret"`
	Steps  int64        `json:"steps"`
	Output []string     `json:"output,omitempty"`
	Prof   *wireProfile `json:"prof,omitempty"`
}

// RunKeyID is the content address of one run-cache key: a hex SHA-256
// over the canonical key tuple. Both sides of the peer protocol derive
// it independently, so a fill whose claimed key does not hash to the
// URL it was posted at is rejected.
func RunKeyID(fingerprint uint64, workload, entry, watch string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%016x|%s|%s|%s", fingerprint, workload, entry, watch)))
	return hex.EncodeToString(sum[:])
}

// EncodeResult serializes res for a peer-cache fill and returns the
// payload plus its hex SHA-256 (the content checksum verified on both
// store and fetch). Results that cannot cross the wire faithfully —
// buffer-valued returns, non-finite floats JSON cannot carry — return an
// error; callers skip the fill and the cluster degrades to per-node
// caching for that key.
func EncodeResult(res *interp.Result) (payload []byte, sum string, err error) {
	if res == nil {
		return nil, "", fmt.Errorf("cluster: nil result")
	}
	if res.Ret.K == interp.KBuf {
		return nil, "", fmt.Errorf("cluster: buffer-valued result is not wire-encodable")
	}
	w := wireResult{
		Ret:    wireValue{K: int(res.Ret.K), I: res.Ret.I, F: res.Ret.F, B: res.Ret.B},
		Steps:  res.Steps,
		Output: res.Output,
	}
	if res.Prof != nil {
		wp, err := encodeProfile(res.Prof)
		if err != nil {
			return nil, "", err
		}
		w.Prof = wp
	}
	payload, err = json.Marshal(w)
	if err != nil {
		return nil, "", fmt.Errorf("cluster: encode result: %w", err)
	}
	return payload, Checksum(payload), nil
}

// Checksum is the content checksum of a wire payload (hex SHA-256).
func Checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func encodeProfile(p *interp.Profile) (*wireProfile, error) {
	wp := &wireProfile{
		Cycles:            p.Cycles,
		Flops:             p.Flops,
		IntOps:            p.IntOps,
		LoadBytes:         p.LoadBytes,
		StoreBytes:        p.StoreBytes,
		WatchFunc:         p.WatchFunc,
		WatchLoop:         p.WatchLoop,
		WatchCalls:        p.WatchCalls,
		WatchCycles:       p.WatchCycles,
		WatchFlops:        p.WatchFlops,
		WatchLoadBytes:    p.WatchLoadBytes,
		WatchStoreBytes:   p.WatchStoreBytes,
		WatchSpecialFlops: p.WatchSpecialFlops,
	}
	for id, lp := range p.Loops {
		wp.Loops = append(wp.Loops, wireLoop{
			ID: id, Line: lp.Pos.Line, Col: lp.Pos.Col, Func: lp.Func,
			Depth: lp.Depth, Entries: lp.Entries, Trips: lp.Trips, Cycles: lp.Cycles,
		})
	}
	sort.Slice(wp.Loops, func(i, j int) bool { return wp.Loops[i].ID < wp.Loops[j].ID })
	for param, tr := range p.ParamTraffic {
		wp.Traffic = append(wp.Traffic, wireTraffic{
			Param: param, BytesIn: tr.BytesIn, BytesOut: tr.BytesOut,
			ElemReads: tr.ElemReads, ElemWrites: tr.ElemWrites,
		})
	}
	sort.Slice(wp.Traffic, func(i, j int) bool { return wp.Traffic[i].Param < wp.Traffic[j].Param })

	for _, b := range p.Bufs {
		wp.Bufs = append(wp.Bufs, wireBuf{Name: b.Name, Kind: int(b.Kind), Len: b.Len})
	}
	for _, b := range p.Bindings {
		wp.Bindings = append(wp.Bindings, wireBinding{Params: b.Params, Count: b.Count})
	}
	return wp, nil
}

// DecodeResult parses a wire payload back into an interp.Result,
// verifying the content checksum first. The reconstructed result is
// read-only shared state exactly like a locally cached one.
func DecodeResult(payload []byte, sum string) (*interp.Result, error) {
	if got := Checksum(payload); got != sum {
		return nil, fmt.Errorf("cluster: result checksum mismatch (got %.12s want %.12s)", got, sum)
	}
	var w wireResult
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("cluster: decode result: %w", err)
	}
	res := &interp.Result{
		Ret:    interp.Value{K: interp.ValKind(w.Ret.K), I: w.Ret.I, F: w.Ret.F, B: w.Ret.B},
		Steps:  w.Steps,
		Output: w.Output,
	}
	if res.Ret.K == interp.KBuf {
		return nil, fmt.Errorf("cluster: buffer-valued result on the wire")
	}
	if w.Prof != nil {
		p, err := decodeProfile(w.Prof)
		if err != nil {
			return nil, err
		}
		res.Prof = p
	}
	return res, nil
}

func decodeProfile(wp *wireProfile) (*interp.Profile, error) {
	p := &interp.Profile{
		Cycles:            wp.Cycles,
		Flops:             wp.Flops,
		IntOps:            wp.IntOps,
		LoadBytes:         wp.LoadBytes,
		StoreBytes:        wp.StoreBytes,
		Loops:             make(map[int]*interp.LoopProfile, len(wp.Loops)),
		WatchFunc:         wp.WatchFunc,
		WatchLoop:         wp.WatchLoop,
		WatchCalls:        wp.WatchCalls,
		WatchCycles:       wp.WatchCycles,
		WatchFlops:        wp.WatchFlops,
		WatchLoadBytes:    wp.WatchLoadBytes,
		WatchStoreBytes:   wp.WatchStoreBytes,
		WatchSpecialFlops: wp.WatchSpecialFlops,
		ParamTraffic:      make(map[string]*interp.Traffic, len(wp.Traffic)),
	}
	for _, wl := range wp.Loops {
		p.Loops[wl.ID] = &interp.LoopProfile{
			ID: wl.ID, Pos: minic.Pos{Line: wl.Line, Col: wl.Col}, Func: wl.Func,
			Depth: wl.Depth, Entries: wl.Entries, Trips: wl.Trips, Cycles: wl.Cycles,
		}
	}
	// A payload without the field — an older peer's — decodes to 0: the
	// watch fields describe WatchFunc, and a flow re-runs what it needs.
	if wp.WatchLoop < 0 || wp.WatchLoop != 0 && p.Loops[wp.WatchLoop] == nil {
		return nil, fmt.Errorf("cluster: watched loop %d is not a loop of the profile", wp.WatchLoop)
	}
	for _, wt := range wp.Traffic {
		p.ParamTraffic[wt.Param] = &interp.Traffic{
			Param: wt.Param, BytesIn: wt.BytesIn, BytesOut: wt.BytesOut,
			ElemReads: wt.ElemReads, ElemWrites: wt.ElemWrites,
		}
	}
	for _, wb := range wp.Bufs {
		// A length whose byte size overflows would corrupt the footprint
		// arithmetic downstream; no run can have produced it.
		if wb.Len < 0 || int64(wb.Len) > math.MaxInt64/8 {
			return nil, fmt.Errorf("cluster: implausible buffer length %d on the wire", wb.Len)
		}
		p.Bufs = append(p.Bufs, interp.BufShape{Name: wb.Name, Kind: minic.BasicKind(wb.Kind), Len: wb.Len})
	}
	for _, wb := range wp.Bindings {
		if wb.Count <= 0 || wb.Count > 1<<20 {
			return nil, fmt.Errorf("cluster: implausible binding repeat count %d", wb.Count)
		}
		for _, idx := range wb.Params {
			if idx < 0 || idx >= len(p.Bufs) {
				return nil, fmt.Errorf("cluster: binding references unknown buffer %d", idx)
			}
		}
		p.Bindings = append(p.Bindings, interp.Binding{Params: wb.Params, Count: wb.Count})
	}
	return p, nil
}
