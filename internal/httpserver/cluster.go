package httpserver

import (
	"net/http"
	"net/url"
	"strings"

	"objectrunner/internal/cluster"
	"objectrunner/internal/obs"
)

// This file is the server side of multi-node mode: deciding per request
// whether to serve locally or proxy to the ring owner, relaying owner
// responses, and fanning out invalidations. Single-node servers
// (Config.Cluster == nil) never enter any of it.
//
// The routing invariants:
//
//   - A forwarded request (X-Forwarded-By set) is ALWAYS served locally.
//     This is the loop guard: if two nodes briefly disagree on ring
//     membership (mid-rollout config skew), the worst case is one extra
//     hop, never a forwarding cycle.
//   - A locally-owned request is served locally.
//   - A peer-owned request is proxied to its owner with bounded retry;
//     if the owner stays unreachable (or answers 502/503/504), the node
//     falls back to serving locally — any node can warm any wrapper from
//     the shared spill directory — and only answers 503 when it cannot
//     (an extract for a source it has no registration for).

// routeToOwner applies the routing decision for a request on the source
// key, forwarding the request body the handler read verbatim. handled
// means the owner's reply was relayed to the client; fallback means the
// owner could not serve and the caller should serve locally as best it
// can.
func (s *Server) routeToOwner(w http.ResponseWriter, r *http.Request, key, path string, body []byte) (handled, fallback bool) {
	if s.cluster == nil {
		return false, false
	}
	if r.Header.Get(cluster.HeaderForwardedBy) != "" {
		// Loop guard: a forwarded request terminates here.
		return false, false
	}
	if s.cluster.IsLocal(key) {
		return false, false
	}
	owner := s.cluster.Owner(key)
	// The instrument middleware already echoed the request's trace id
	// into the response headers; propagate the same id to the owner.
	res, err := s.fwd.Forward(r.Context(), owner, http.MethodPost, path, body, w.Header().Get("X-Trace-Id"))
	if err != nil || res.OwnerDown() {
		s.obs.CountL("cluster.fallback_local", 1, obs.L("owner", owner.ID))
		return false, true
	}
	relay(w, res)
	return true, false
}

// countForwarded attributes a request that arrived via peer forwarding
// to its source (surfaced as forwarded_hits in GET /v1/sources).
func (s *Server) countForwarded(r *http.Request, src *source) {
	if s.cluster != nil && r.Header.Get(cluster.HeaderForwardedBy) != "" {
		src.forwardedHits.Add(1)
	}
}

// relay writes an owner's response to the client verbatim.
func relay(w http.ResponseWriter, res *cluster.Result) {
	if res.ContentType != "" {
		w.Header().Set("Content-Type", res.ContentType)
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

// fanoutDelete broadcasts a source invalidation to every peer. It
// reports whether any peer deleted a registration. A forwarded delete
// stays local (the originating node is already doing the broadcast),
// as does single-node mode.
func (s *Server) fanoutDelete(r *http.Request, key string) bool {
	if s.cluster == nil || r.Header.Get(cluster.HeaderForwardedBy) != "" {
		return false
	}
	path := "/v1/sources/" + escapeKeyPath(key)
	trace := r.Header.Get(cluster.HeaderTraceID)
	deleted := false
	for _, peer := range s.cluster.Peers() {
		res, err := s.fwd.Forward(r.Context(), peer, http.MethodDelete, path, nil, trace)
		if err != nil {
			continue
		}
		if res.Status == http.StatusNoContent {
			deleted = true
		}
	}
	return deleted
}

// escapeKeyPath escapes a source key for use in a /v1/sources/{key...}
// path, preserving the slashes that are part of the key itself.
func escapeKeyPath(key string) string {
	segs := strings.Split(key, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}
