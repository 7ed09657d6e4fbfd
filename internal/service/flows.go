package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"psaflow/internal/flowlang"
	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

// The flow registry: named, versioned, immutable flow documents.
//
// PUT /v1/flows/{name} registers the request body (a .psa document, see
// docs/FLOWS.md) as the next version of {name}; versions are never
// rewritten, so a job submitted with "flow": "designs@2" executes the
// same graph forever, and a bare "flow": "designs" is pinned to the
// latest version at submit time — before the submit record is written —
// so crash replay re-runs exactly the graph the client was acked with.
//
// Durability rides the same WAL machinery as jobs: each accepted version
// appends one terminal record to a second store at DataDir/flows (ID
// "name@version", retained forever), and startup replays the history
// before any job replay so recovered flow-jobs can still resolve.

// FlowInfo describes one registered flow version. Source is included in
// single-flow GETs and omitted from listings.
type FlowInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// FlowName is the document's own `flow "..."` declaration name.
	FlowName  string `json:"flow_name"`
	CreatedAt string `json:"created_at"`
	Source    string `json:"source,omitempty"`

	// file is Source as flowlang.Check returned it at PUT or at replay:
	// what the version's jobs lower. checkErr is why a replayed Source no
	// longer checks; the version's jobs then fail with it.
	file     *flowlang.File
	checkErr error
}

// flowRegistry holds every registered version in memory (the documents
// are small) with an optional WAL behind it.
type flowRegistry struct {
	mu    sync.Mutex
	flows map[string][]FlowInfo // name → versions, index i = version i+1
	store *store.Store          // nil = memory-only (no DataDir)
}

// validFlowName mirrors validJobID: flow names appear in store record IDs
// and URLs, so the charset stays conservative. The "@" version separator
// is excluded by construction.
func validFlowName(name string) bool { return validJobID(name) }

// parseFlowRef splits a job's flow reference: "name" (latest at submit)
// or "name@N" (pinned).
func parseFlowRef(ref string) (name string, version int, err error) {
	name, ver, ok := strings.Cut(ref, "@")
	if !validFlowName(name) {
		return "", 0, fmt.Errorf("invalid flow name %q (want lowercase letters, digits, and dashes)", name)
	}
	if !ok {
		return name, 0, nil
	}
	v, cerr := strconv.Atoi(ver)
	if cerr != nil || v < 1 {
		return "", 0, fmt.Errorf("invalid flow version %q in %q (want a positive integer)", ver, ref)
	}
	return name, v, nil
}

func (s *Server) flowStorePath() string { return filepath.Join(s.cfg.DataDir, "flows") }

// openFlowRegistry builds the registry, replaying the version history
// from DataDir/flows when persistence is on. Called by Start before the
// job-store replay: recovered jobs may reference registered flows.
func (s *Server) openFlowRegistry() error {
	s.flowReg = &flowRegistry{flows: make(map[string][]FlowInfo)}
	if s.cfg.DataDir == "" {
		return nil
	}
	st, err := store.Open(s.flowStorePath(), store.Options{Logf: s.logf})
	if err != nil {
		return fmt.Errorf("service: open flow registry store: %w", err)
	}
	s.flowReg.store = st
	replayed := 0
	for _, e := range st.Entries() {
		var info FlowInfo
		if err := json.Unmarshal(e.Result, &info); err != nil || info.Name == "" || info.Version < 1 {
			s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
			s.logf("flow registry: corrupt record %q skipped: %v", e.ID, err)
			continue
		}
		vs := s.flowReg.flows[info.Name]
		if info.Version != len(vs)+1 {
			s.rec.Add(telemetry.CounterStoreSkippedCorrupt, 1)
			s.logf("flow registry: out-of-order version %s@%d skipped (have %d)", info.Name, info.Version, len(vs))
			continue
		}
		if info.file, info.checkErr = flowlang.Check(info.Source); info.checkErr != nil {
			s.logf("flow registry: %s@%d no longer checks; its jobs will fail: %v", info.Name, info.Version, info.checkErr)
		}
		s.flowReg.flows[info.Name] = append(vs, info)
		replayed++
	}
	if replayed > 0 {
		s.logf("flow registry: replayed %d flow version(s)", replayed)
	}
	return nil
}

// putFlow validates and registers src as the next version of name. The
// version record is durable before the caller sees it: like job submits,
// an acked version survives whatever happens to the process next.
func (s *Server) putFlow(name, src string) (FlowInfo, error) {
	file, err := flowlang.Check(src)
	if err != nil {
		return FlowInfo{}, err
	}
	s.rec.Add(telemetry.CounterFlowCompiles, 1)
	reg := s.flowReg
	reg.mu.Lock()
	defer reg.mu.Unlock()
	info := FlowInfo{
		Name:      name,
		Version:   len(reg.flows[name]) + 1,
		FlowName:  file.Flow.Name,
		CreatedAt: fmtTime(time.Now()),
		Source:    src,
		file:      file,
	}
	if reg.store != nil {
		data, err := json.Marshal(info)
		if err != nil {
			return FlowInfo{}, err
		}
		id := fmt.Sprintf("%s@%d", info.Name, info.Version)
		err = s.persistIO("wal:flow:"+id, func() error {
			return reg.store.Append(store.Record{
				Op:    store.OpResult,
				ID:    id,
				State: "registered",
				Time:  info.CreatedAt,
				Data:  data,
			})
		})
		if err != nil {
			return FlowInfo{}, fmt.Errorf("persist flow version: %w", err)
		}
	}
	reg.flows[name] = append(reg.flows[name], info)
	return info, nil
}

// getFlow fetches one version (0 = latest).
func (s *Server) getFlow(name string, version int) (FlowInfo, bool) {
	reg := s.flowReg
	reg.mu.Lock()
	defer reg.mu.Unlock()
	vs := reg.flows[name]
	if len(vs) == 0 {
		return FlowInfo{}, false
	}
	if version == 0 {
		version = len(vs)
	}
	if version < 1 || version > len(vs) {
		return FlowInfo{}, false
	}
	return vs[version-1], true
}

// resolveFlowRef resolves a job's flow reference to a concrete version
// and returns it with the pinned "name@version" form that is persisted
// in the job spec.
func (s *Server) resolveFlowRef(ref string) (FlowInfo, string, error) {
	name, version, err := parseFlowRef(ref)
	if err != nil {
		return FlowInfo{}, "", err
	}
	s.rec.Add(telemetry.CounterFlowRegistryResolves, 1)
	info, ok := s.getFlow(name, version)
	if !ok {
		if version > 0 {
			return FlowInfo{}, "", fmt.Errorf("flow %q version %d is not registered", name, version)
		}
		return FlowInfo{}, "", fmt.Errorf("flow %q is not registered", name)
	}
	return info, fmt.Sprintf("%s@%d", info.Name, info.Version), nil
}

// listFlows summarizes the registry: the latest version of every name,
// sources omitted, sorted by name.
func (s *Server) listFlows() []FlowInfo {
	reg := s.flowReg
	reg.mu.Lock()
	out := make([]FlowInfo, 0, len(reg.flows))
	for _, vs := range reg.flows {
		info := vs[len(vs)-1]
		info.Source = ""
		out = append(out, info)
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// closeFlowRegistry closes the registry's store on drain.
func (s *Server) closeFlowRegistry() error {
	if s.flowReg == nil || s.flowReg.store == nil {
		return nil
	}
	return s.flowReg.store.Close()
}

// --- HTTP handlers ---

// handleFlowPut registers the request body (a raw .psa document) as the
// next version of the named flow.
func (s *Server) handleFlowPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.rec.Add(telemetry.CounterFlowRegistryPuts, 1)
	name := r.PathValue("name")
	if !validFlowName(name) {
		writeErr(w, http.StatusBadRequest, "invalid flow name %q (want lowercase letters, digits, and dashes)", name)
		return
	}
	maxBody := s.cfg.MaxBody
	// A .psa document is raw text, not JSON — the registry needs the whole
	// source as one string, so this is a streamed bounded copy (fixed
	// 32 KiB chunks into a builder grown once), not a token decode.
	var src strings.Builder
	bounded := http.MaxBytesReader(w, r.Body, maxBody)
	if r.ContentLength > 0 && r.ContentLength <= maxBody {
		src.Grow(int(r.ContentLength))
	}
	if _, err := io.CopyBuffer(&src, bounded, make([]byte, 32*1024)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "flow document exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	info, err := s.putFlow(name, src.String())
	if err != nil {
		var el *flowlang.ErrorList
		if errors.As(err, &el) {
			// Every diagnostic, position-sorted, in one response.
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":       fmt.Sprintf("flow document has %d validation error(s)", len(el.Diags)),
				"diagnostics": strings.Split(el.Error(), "\n"),
			})
			return
		}
		writeErr(w, http.StatusBadRequest, "invalid flow document: %v", err)
		return
	}
	s.logf("flow %s@%d: registered (%d bytes, flow %q)", info.Name, info.Version, src.Len(), info.FlowName)
	reply := info
	reply.Source = ""
	writeJSON(w, http.StatusCreated, reply)
}

// handleFlowGet serves one registered version, source included
// (?version=N; the latest without it).
func (s *Server) handleFlowGet(w http.ResponseWriter, r *http.Request) {
	s.rec.Add(telemetry.CounterFlowRegistryGets, 1)
	name := r.PathValue("name")
	version := 0
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "invalid version %q (want a positive integer)", v)
			return
		}
		version = n
	}
	info, ok := s.getFlow(name, version)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown flow %q", name)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleFlowList serves the registry summary.
func (s *Server) handleFlowList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"flows": s.listFlows()})
}
