package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"psaflow/internal/cluster"
	"psaflow/internal/telemetry"
)

// Cluster integration of the HTTP handlers: a client may talk to any
// node and see one logical service.
//
// Submissions route by consistent hash: handleSubmit computes the job's
// ring owner from (tenant, program fingerprint) and forwards the decoded
// spec when the owner is another node — one hop at most, because the
// forwarded request carries ForwardedHeader and is always handled
// locally by the receiver. A forward that cannot reach its peer falls
// back to running the job locally: peer loss never fails a submission.
//
// Status, result, event, and cancel requests for jobs this node does not
// know proxy to the node whose ID prefixes the job ID (the ID *is* the
// routing table — no shared state needed). Proxied requests carry
// ProxiedHeader, again capping the hop count at one.

// forwardSubmit relays a validated, flow-pinned spec to its ring owner
// and copies the owner's response verbatim. false = transport failure
// (counted); the caller runs the job locally.
func (s *Server) forwardSubmit(w http.ResponseWriter, ctx context.Context, owner string, spec JobSpec) bool {
	c := s.cfg.Cluster
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	resp, err := c.ForwardSubmit(ctx, owner, body)
	if err != nil {
		s.rec.Add(telemetry.CounterClusterForwardFailed, 1)
		s.rec.Add(telemetry.CounterClusterForwardedLocal, 1)
		s.logf("cluster: forward to %s failed, running locally: %v", owner, err)
		return false
	}
	defer resp.Body.Close()
	s.rec.Add(telemetry.CounterClusterForwarded, 1)
	relayResponse(w, resp)
	return true
}

// proxyToOwner relays a request for a job whose ID names another node.
// false = not proxyable (no cluster, already proxied, unknown prefix, or
// the job is ours); transport failures answer 502 and return true.
func (s *Server) proxyToOwner(w http.ResponseWriter, r *http.Request, id string) bool {
	c := s.cfg.Cluster
	if c == nil || r.Header.Get(cluster.ProxiedHeader) != "" || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner := ""
	for _, node := range c.Nodes() {
		if node != c.Self() && strings.HasPrefix(id, node+"-") {
			owner = node
			break
		}
	}
	if owner == "" {
		return false
	}
	url, ok := c.PeerURL(owner)
	if !ok {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url+r.URL.Path, nil)
	if err != nil {
		return false
	}
	req.URL.RawQuery = r.URL.RawQuery
	req.Header.Set(cluster.ProxiedHeader, c.Self())
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	if from := r.Header.Get("Last-Event-ID"); from != "" {
		req.Header.Set("Last-Event-ID", from)
	}
	// Event streams outlive any sane request timeout; everything else
	// uses the bounded peer client.
	resp, err := c.StreamClient().Do(req)
	if err != nil {
		s.rec.Add(telemetry.CounterClusterProxyFailed, 1)
		writeErr(w, http.StatusBadGateway, "job %q lives on node %s, which is unreachable: %v", id, owner, err)
		return true
	}
	defer resp.Body.Close()
	s.rec.Add(telemetry.CounterClusterProxied, 1)
	relayResponse(w, resp)
	return true
}

// relayResponse copies a peer's response through, flushing after every
// read so proxied event streams stay live.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
