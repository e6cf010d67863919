// Package apiv1 is the versioned wire contract of the ObjectRunner
// extraction daemon (cmd/objectrunnerd): every request and response
// body exchanged over the /v1 HTTP surface lives here, in exactly one
// place. The server (internal/httpserver), the typed Go client
// (api/v1/client), the load generator (cmd/loadgen) and the end-to-end
// tests all import these types, so a field added or renamed here is the
// single source of truth for the wire format.
//
// The package deliberately imports nothing from the objectrunner module
// — not even the root package — so any program can depend on it without
// pulling in the extraction pipeline.
//
// Endpoints and their types:
//
//	POST   /v1/wrap           WrapRequest   → WrapResponse | Error
//	POST   /v1/extract        ExtractRequest → ExtractResponse | Error
//	GET    /v1/sources        SourcesResponse
//	DELETE /v1/sources/{key}  204 | Error
//	GET    /healthz           HealthResponse
//
// Clustering: in multi-node mode (see internal/cluster) a request may
// be transparently forwarded to the node owning its source key. The
// HeaderForwardedBy header marks a forwarded request (the loop guard:
// a forwarded request is never forwarded again), and the Node field on
// responses reports which node actually served.
package apiv1

// Header names of the /v1 contract.
const (
	// HeaderTraceID carries the request trace id. The server sanitizes
	// and echoes it (minting one when absent), so a caller-supplied id
	// joins the daemon's spans and flight-recorder entries.
	HeaderTraceID = "X-Trace-Id"
	// HeaderForwardedBy is set by a cluster node when it proxies a
	// request to the source's owner; its value is the forwarding node's
	// id. A request carrying it is always served locally (loop guard).
	HeaderForwardedBy = "X-Forwarded-By"
)

// Entry is one dictionary instance for an instanceOf entity type. A
// zero Confidence defaults server-side (like cmd/objectrunner's -dict
// files) to 0.9.
type Entry struct {
	Value      string  `json:"value"`
	Confidence float64 `json:"confidence,omitempty"`
}

// WrapRequest registers a source — its SOD, optional dictionaries and
// sample pages — and infers (or reuses) its wrapper.
type WrapRequest struct {
	Source       string             `json:"source"`
	SOD          string             `json:"sod"`
	Pages        []string           `json:"pages"`
	Dictionaries map[string][]Entry `json:"dictionaries,omitempty"`
}

// WrapResponse reports the inferred (or reused) wrapper.
type WrapResponse struct {
	Source      string  `json:"source"`
	Pages       int     `json:"pages"`
	Score       float64 `json:"score"`
	Support     int     `json:"support"`
	Description string  `json:"description"`
	// Node is the id of the cluster node that served the request (empty
	// in single-node mode). Under forwarding it names the owner, not
	// the node the client spoke to.
	Node string `json:"node,omitempty"`
}

// ExtractRequest batch-extracts pages against a registered source's
// cached wrapper (wrap-on-miss using these pages as the sample).
type ExtractRequest struct {
	Source string   `json:"source"`
	Pages  []string `json:"pages"`
}

// ExtractResponse carries the flattened objects, one map per object,
// in page order. The daemon writes it with
// objectrunner.AppendExtractResponse rather than encoding/json; a test
// pins the two byte-identical, so a field added here must be added
// there too.
type ExtractResponse struct {
	Source  string           `json:"source"`
	Pages   int              `json:"pages"`
	Count   int              `json:"count"`
	Objects []map[string]any `json:"objects"`
	Node    string           `json:"node,omitempty"`
}

// Error is the error envelope every non-2xx /v1 response carries.
type Error struct {
	Error string `json:"error"`
	// Report holds the EXPLAIN-style inference report when a wrap was
	// rejected because the source does not carry the targeted data
	// (HTTP 422).
	Report string `json:"report,omitempty"`
}

// SourceStats is the wire view of a source's wrapper-cache accounting.
type SourceStats struct {
	Len             int   `json:"len"`
	Hits            int64 `json:"hits"`
	DiskHits        int64 `json:"disk_hits"`
	Misses          int64 `json:"misses"`
	Shared          int64 `json:"shared"`
	EvictionsLRU    int64 `json:"evictions_lru"`
	EvictionsTTL    int64 `json:"evictions_ttl"`
	EvictionsHealth int64 `json:"evictions_health"`
}

// SourceInfo describes one registered source on the answering node.
type SourceInfo struct {
	Source string `json:"source"`
	SOD    string `json:"sod"`
	// Owner is the id of the cluster node the hash ring assigns this
	// source to (empty in single-node mode). Owner != the answering
	// node means the source was registered here by a fallback serve or
	// before a ring change.
	Owner string `json:"owner,omitempty"`
	// ForwardedHits counts requests for this source that arrived here
	// via peer forwarding — how much of this node's traffic for the
	// source came through the ring rather than directly.
	ForwardedHits int64       `json:"forwarded_hits,omitempty"`
	Stats         SourceStats `json:"stats"`
}

// SourcesResponse is the GET /v1/sources body.
type SourcesResponse struct {
	// Node is the answering node's id (empty in single-node mode).
	Node    string       `json:"node,omitempty"`
	Sources []SourceInfo `json:"sources"`
}

// HealthResponse is the GET /healthz body. Status is "ok" (HTTP 200)
// or "draining" (HTTP 503).
type HealthResponse struct {
	Status   string `json:"status"`
	Sources  int    `json:"sources,omitempty"`
	Inflight int64  `json:"inflight,omitempty"`
	Node     string `json:"node,omitempty"`
}
