package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"psaflow/internal/telemetry"
)

// Wire headers of the peer protocol.
const (
	// ForwardedHeader marks a job submission forwarded by another node;
	// its value is the forwarding node's ID. A request carrying it is
	// always handled locally — one hop maximum, so a stale or split
	// ring can never orbit a job between nodes.
	ForwardedHeader = "X-Psaflow-Forwarded"
	// ProxiedHeader marks a status/result/events/cancel request proxied
	// by another node; the target answers from local state only.
	ProxiedHeader = "X-Psaflow-Proxied"
	// sumHeader carries the envelope checksum on run-cache GETs.
	sumHeader = "X-Psaflow-Sum"
	// nodeHeader / loadHeader identify the responding node and its
	// current load on every peer-protocol response; the client side
	// feeds both into its health table.
	nodeHeader = "X-Psaflow-Node"
	loadHeader = "X-Psaflow-Load"
)

// maxEnvelopeBytes bounds one run envelope on the wire (fills and
// fetches). Profiled-run payloads are a few KB; 8 MiB is a defensive
// ceiling, not a target.
const maxEnvelopeBytes = 8 << 20

// runEnvelope is the POST /v1/cluster/runs/{key} body: the key fields
// (re-hashed by the owner to verify the URL), the content checksum, and
// the wire result.
type runEnvelope struct {
	Fingerprint uint64          `json:"fingerprint"`
	Workload    string          `json:"workload"`
	Entry       string          `json:"entry"`
	Watch       string          `json:"watch"`
	Sum         string          `json:"sum"`
	Result      json.RawMessage `json:"result"`
}

// Register mounts the peer protocol on the service mux.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/cluster/ping", n.stamp(n.handlePing))
	mux.HandleFunc("GET /v1/cluster/runs/{key}", n.stamp(n.handleRunGet))
	mux.HandleFunc("POST /v1/cluster/runs/{key}", n.stamp(n.handleRunFill))
}

// stamp adds the responder-identity headers every peer response carries.
func (n *Node) stamp(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(nodeHeader, n.self)
		w.Header().Set(loadHeader, strconv.FormatInt(n.localLoad(), 10))
		h(w, r)
	}
}

func clusterErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"node":          n.self,
		"load":          n.localLoad(),
		"healthy_nodes": n.HealthyCount(),
	})
}

// handleRunGet serves the owner side of a read-through fetch. A present
// entry returns 200 with the payload. An absent entry either claims the
// key pending under the requester (404, compute-and-fill) or — when the
// key is already pending under someone else and ?wait is positive —
// blocks for the fill up to the wait budget (200 on arrival, 404 on
// timeout).
func (n *Node) handleRunGet(w http.ResponseWriter, r *http.Request) {
	keyID := r.PathValue("key")
	if len(keyID) != 64 {
		clusterErr(w, http.StatusBadRequest, "malformed run key %q", keyID)
		return
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			clusterErr(w, http.StatusBadRequest, "invalid wait=%q", v)
			return
		}
		// The server-side wait is capped below the client timeout so a
		// slow fill answers 404 rather than a torn connection.
		wait = min(time.Duration(ms)*time.Millisecond, n.cfg.HTTPTimeout-time.Second)
	}
	payload, sum, hit, _, waited := n.runs.fetch(keyID, wait, n.now)
	if !hit {
		clusterErr(w, http.StatusNotFound, "no envelope for %.12s", keyID)
		return
	}
	if waited {
		n.count(telemetry.CounterClusterRunWaitHits, 1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(sumHeader, sum)
	w.Write(payload)
}

// handleRunFill verifies and stores a fill: the envelope's key fields
// must hash to the URL's key ID and the checksum must match the payload
// — content-addressed both ways, so a buggy or malicious filler cannot
// poison a key it does not hold the bytes for.
func (n *Node) handleRunFill(w http.ResponseWriter, r *http.Request) {
	keyID := r.PathValue("key")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes+1))
	if err != nil {
		clusterErr(w, http.StatusBadRequest, "read fill: %v", err)
		return
	}
	if len(body) > maxEnvelopeBytes {
		n.count(telemetry.CounterClusterRunFillReject, 1)
		clusterErr(w, http.StatusRequestEntityTooLarge, "fill exceeds %d bytes", maxEnvelopeBytes)
		return
	}
	var env runEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		n.count(telemetry.CounterClusterRunFillReject, 1)
		clusterErr(w, http.StatusBadRequest, "decode fill: %v", err)
		return
	}
	if got := RunKeyID(env.Fingerprint, env.Workload, env.Entry, env.Watch); got != keyID {
		n.count(telemetry.CounterClusterRunFillReject, 1)
		clusterErr(w, http.StatusBadRequest, "fill key mismatch: body hashes to %.12s, URL names %.12s", got, keyID)
		return
	}
	if got := Checksum(env.Result); got != env.Sum {
		n.count(telemetry.CounterClusterRunFillReject, 1)
		clusterErr(w, http.StatusBadRequest, "fill checksum mismatch")
		return
	}
	// Decode once at the boundary: a payload that cannot decode must not
	// be served to peers who would each reject it.
	if _, err := DecodeResult(env.Result, env.Sum); err != nil {
		n.count(telemetry.CounterClusterRunFillReject, 1)
		clusterErr(w, http.StatusBadRequest, "fill rejected: %v", err)
		return
	}
	n.runs.put(keyID, env.Result, env.Sum)
	w.WriteHeader(http.StatusCreated)
}
