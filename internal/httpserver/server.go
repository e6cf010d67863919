// Package httpserver is the network tier of ObjectRunner: a JSON/HTTP
// front-end over the objectrunner.Service serving facade, designed for
// a long-running extraction daemon (cmd/objectrunnerd).
//
// Endpoints:
//
//	POST   /v1/wrap           register a source (SOD + dictionaries) and
//	                          infer (or reuse) its wrapper from sample pages
//	POST   /v1/extract        batch-extract pages against a registered
//	                          source's cached wrapper (wrap-on-miss)
//	GET    /v1/sources        list registered sources with cache stats
//	DELETE /v1/sources/{key}  invalidate a source's wrapper and registration
//	GET    /healthz           readiness (503 while draining)
//	GET    /metrics           counters, gauges (uptime, build info) and
//	                          quantile-bearing histograms, per-source
//	                          labeled; JSON by default, Prometheus text
//	                          exposition under `Accept: text/plain`
//	GET    /v1/debug/traces   the request flight recorder: the N most
//	                          recent and N slowest requests
//	GET    /debug/pprof/...   net/http/pprof, only with Config.EnablePprof
//
// The robustness layer is the point, not the routing: per-request
// timeouts threaded into the context-aware extraction APIs, a
// semaphore-based concurrency limit that answers 429 + Retry-After when
// full (backpressure instead of collapse), request-size limits, a
// per-request trace id spanned through internal/obs, panic recovery
// that converts to a 500 without killing the process, and a graceful
// drain sequence (Drain → Abort → Close) that stops accepting work,
// cancels in-flight wraps and extracts through their contexts, and
// spills the wrapper caches to disk before exit.
//
// The wire types live in api/v1 — the single shared contract between
// this server, the typed client (api/v1/client), cmd/loadgen and the
// e2e tests. In multi-node mode (Config.Cluster) the server forwards
// requests for peer-owned sources to their owner; see cluster.go.
package httpserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objectrunner"
	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/cluster"
	"objectrunner/internal/obs"
	"objectrunner/internal/wrapper"
)

// Config tunes the server. The zero value is completed with defaults.
type Config struct {
	// MaxInflight bounds the concurrent /v1/wrap + /v1/extract requests;
	// excess requests are refused with 429 and a Retry-After header
	// rather than queued. Default 32.
	MaxInflight int
	// RequestTimeout is the per-request deadline threaded into wrapper
	// inference and extraction; 0 means no limit.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body. Default 32 MiB.
	MaxBodyBytes int64
	// Workers bounds each extract's fan-out over its pages (0 = one per
	// CPU). Wraps infer on their request goroutine whatever its value:
	// the server runs requests side by side, and a wrap that fanned out
	// would take CPUs from the extracts beside it (DESIGN §9).
	Workers int
	// Store configures every registered source's wrapper cache; set
	// Store.SpillDir to persist wrappers across restarts (the drain
	// sequence spills there on shutdown).
	Store objectrunner.StoreConfig
	// Obs receives the server's spans and counters and backs /metrics.
	// Defaults to a fresh metrics-only observer.
	Obs *obs.Observer
	// FlightRecorderSize is the per-kind capacity of the request flight
	// recorder behind GET /v1/debug/traces (N most recent + N slowest
	// requests). Default 64.
	FlightRecorderSize int
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: the profiling endpoints expose
	// process internals and cost CPU while sampling, so they are opt-in.
	EnablePprof bool
	// Cluster enables multi-node mode: the consistent-hash ring decides
	// which node owns each source key, and requests for peer-owned
	// sources are transparently forwarded to the owner (see cluster.go).
	// nil means single-node — no forwarding, no node labels.
	Cluster *cluster.Cluster
	// Forward tunes the peer-forwarding client (retries, backoff, HTTP
	// client); its Obs field is ignored — the server's observer is used.
	Forward cluster.ForwarderConfig
}

func (c *Config) normalize() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 64
	}
}

// source is one registered extraction source: its SOD (plus
// dictionaries, canonicalized into spec) and the serving facade holding
// its cached wrapper.
type source struct {
	spec string // canonical SOD + dictionary fingerprint
	sod  string
	svc  *objectrunner.Service
	// forwardedHits counts requests for this source that arrived via
	// peer forwarding (X-Forwarded-By set) — the ring's share of this
	// node's traffic for the source, surfaced in GET /v1/sources.
	forwardedHits atomic.Int64
}

// Server is the HTTP extraction daemon's core. Create with New, expose
// via Handler, and shut down with Drain/Abort/Close (or Shutdown for
// the whole sequence).
type Server struct {
	cfg Config
	obs *obs.Observer

	// baseCtx spans the server's lifetime; Abort cancels it, which
	// cancels every in-flight request context derived from it.
	baseCtx  context.Context
	abort    context.CancelFunc
	draining atomic.Bool

	sem      chan struct{}
	inflight atomic.Int64
	reqID    atomic.Int64

	flight *obs.FlightRecorder
	start  time.Time

	// Multi-node mode (nil / empty in single-node mode).
	cluster *cluster.Cluster
	fwd     *cluster.Forwarder
	nodeID  string

	handler http.Handler

	mu      sync.Mutex
	sources map[string]*source
}

// New builds a server. It performs no I/O; attach Handler to an
// http.Server (or httptest) to serve.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:     cfg,
		obs:     cfg.Obs,
		sem:     make(chan struct{}, cfg.MaxInflight),
		flight:  obs.NewFlightRecorder(cfg.FlightRecorderSize),
		start:   time.Now(),
		cluster: cfg.Cluster,
		sources: make(map[string]*source),
	}
	if cfg.Cluster != nil {
		s.nodeID = cfg.Cluster.Self().ID
		fcfg := cfg.Forward
		fcfg.Obs = s.obs
		s.fwd = cluster.NewForwarder(s.nodeID, fcfg)
	}
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/wrap", s.limited(s.handleWrap))
	mux.HandleFunc("POST /v1/extract", s.limited(s.handleExtract))
	mux.HandleFunc("GET /v1/sources", s.handleSources)
	mux.HandleFunc("DELETE /v1/sources/{key...}", s.handleDeleteSource)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(mux)
	return s
}

// Handler returns the server's routed and instrumented handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain flips the server into shutdown mode: /healthz answers 503 so
// load balancers stop routing here, and new API requests are refused
// with 503. In-flight requests keep running until Abort.
func (s *Server) Drain() { s.draining.Store(true) }

// Abort cancels every in-flight wrap and extract through the request
// contexts; handlers answer 503 promptly. Safe to call more than once.
func (s *Server) Abort() { s.abort() }

// Close drains every registered source's wrapper cache: in-flight
// builds are waited for (bounded by ctx) and cached wrappers are
// spilled to Store.SpillDir. It returns the first error.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	svcs := make([]*objectrunner.Service, 0, len(s.sources))
	for _, src := range s.sources {
		svcs = append(svcs, src.svc)
	}
	s.mu.Unlock()
	var first error
	for _, svc := range svcs {
		if err := svc.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown runs the full drain sequence: stop accepting (Drain), cancel
// in-flight work (Abort), spill the caches (Close). The caller is
// responsible for http.Server.Shutdown around it — see cmd/objectrunnerd.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	s.Abort()
	return s.Close(ctx)
}

// The /v1 wire types live in api/v1 (the one shared contract between
// server, client, loadgen and the e2e tests); only the observability
// payloads below — which expose internal types like obs.HistView — stay
// private to the server.

// statsWire converts the store's accounting into its api/v1 view.
func statsWire(st objectrunner.StoreStats) apiv1.SourceStats {
	return apiv1.SourceStats{
		Len:             st.Len,
		Hits:            st.Hits,
		DiskHits:        st.DiskHits,
		Misses:          st.Misses,
		Shared:          st.Shared,
		EvictionsLRU:    st.EvictionsLRU,
		EvictionsTTL:    st.EvictionsTTL,
		EvictionsHealth: st.EvictionsHealth,
	}
}

type metricsResponse struct {
	Counters      map[string]int64                   `json:"counters"`
	Gauges        map[string]float64                 `json:"gauges"`
	Histograms    map[string]obs.HistView            `json:"histograms"`
	Sources       map[string]objectrunner.StoreStats `json:"sources"`
	Inflight      int64                              `json:"inflight"`
	Draining      bool                               `json:"draining"`
	UptimeSeconds float64                            `json:"uptime_seconds"`
	Build         buildJSON                          `json:"build"`
}

type buildJSON struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

type traceJSON struct {
	ID     string            `json:"id"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	DurMs  float64           `json:"dur_ms"`
	Status int               `json:"status"`
	Labels map[string]string `json:"labels,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// specOf canonicalizes a registration: SOD text plus the dictionaries in
// sorted class order. Re-registering a source with an identical spec
// reuses its cached wrapper; a changed spec rebuilds the extractor and
// invalidates the stale wrapper.
func specOf(req *apiv1.WrapRequest) string {
	var sb strings.Builder
	sb.WriteString(req.SOD)
	classes := make([]string, 0, len(req.Dictionaries))
	for class := range req.Dictionaries {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Fprintf(&sb, "\x00%s", class)
		for _, e := range req.Dictionaries[class] {
			fmt.Fprintf(&sb, "\x01%s\x02%g", e.Value, e.Confidence)
		}
	}
	return sb.String()
}

// register resolves the wrap request to a registered source, building a
// fresh extractor + service when the source is new or its spec changed.
// The extractor — SOD parse and dictionary compile, milliseconds per
// source — is built outside s.mu, which every extract's lookup takes;
// the registration then re-checks the spec under the lock, so a
// same-spec registration that won the race meanwhile is reused (with its
// cached wrapper), and a changed spec still invalidates the old wrapper.
func (s *Server) register(req *apiv1.WrapRequest) (*source, error) {
	spec := specOf(req)
	if src := s.lookup(req.Source); src != nil && src.spec == spec {
		return src, nil
	}
	ex, err := s.newExtractor(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.sources[req.Source]; ok {
		if old.spec == spec {
			return old, nil
		}
		// The spec changed: the cached wrapper (memory and disk) was
		// inferred under the old SOD/dictionaries and must not be served.
		old.svc.Invalidate(req.Source)
		s.obs.Count("http.sources.replaced", 1)
	}
	src := &source{spec: spec, sod: req.SOD, svc: objectrunner.NewService(ex, s.cfg.Store)}
	s.sources[req.Source] = src
	s.obs.Count("http.sources.registered", 1)
	return src, nil
}

// newExtractor builds the extractor a registration serves with: the
// request's SOD and its dictionaries in sorted class order, inference on
// the request goroutine and the server's extract fan-out.
func (s *Server) newExtractor(req *apiv1.WrapRequest) (*objectrunner.Extractor, error) {
	opts := []objectrunner.Option{}
	classes := make([]string, 0, len(req.Dictionaries))
	for class := range req.Dictionaries {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		entries := make([]objectrunner.Entry, 0, len(req.Dictionaries[class]))
		for _, e := range req.Dictionaries[class] {
			conf := e.Confidence
			if conf == 0 {
				conf = 0.9
			}
			entries = append(entries, objectrunner.Entry{Value: e.Value, Confidence: conf})
		}
		opts = append(opts, objectrunner.WithDictionary(class, entries))
	}
	cfg := objectrunner.DefaultConfig()
	cfg.Workers = s.cfg.Workers
	// Wraps infer on their request goroutine; Workers bounds extraction.
	cfg = wrapper.InferOnCaller(cfg)
	opts = append(opts, objectrunner.WithConfig(cfg), objectrunner.WithObserver(s.obs))
	return objectrunner.New(req.SOD, opts...)
}

func (s *Server) lookup(key string) *source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sources[key]
}

func (s *Server) handleWrap(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req apiv1.WrapRequest
	if err := decodeWrapRequest(body, &req); err != nil {
		s.errorf(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Source == "" || req.SOD == "" || len(req.Pages) == 0 {
		s.errorf(w, http.StatusBadRequest, "source, sod and pages are required")
		return
	}
	// Wrap is always locally servable on fallback: the payload carries
	// the full registration (SOD, dictionaries, pages).
	if handled, _ := s.routeToOwner(w, r, req.Source, "/v1/wrap", body); handled {
		return
	}
	src, err := s.register(&req)
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "bad source description: %v", err)
		return
	}
	s.countForwarded(r, src)
	wr, err := src.svc.Wrapper(r.Context(), req.Source, req.Pages)
	if errors.Is(err, objectrunner.ErrAborted) {
		writeJSON(w, http.StatusUnprocessableEntity, apiv1.Error{
			Error:  fmt.Sprintf("source discarded: %v", err),
			Report: wr.Report(),
		})
		return
	}
	if err != nil {
		s.serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, apiv1.WrapResponse{
		Source:      req.Source,
		Pages:       len(req.Pages),
		Score:       wr.Score(),
		Support:     wr.Support(),
		Description: wr.Describe(),
		Node:        s.nodeID,
	})
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req apiv1.ExtractRequest
	if err := decodeExtractRequest(body, &req); err != nil {
		s.errorf(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Source == "" || len(req.Pages) == 0 {
		s.errorf(w, http.StatusBadRequest, "source and pages are required")
		return
	}
	handled, fallback := s.routeToOwner(w, r, req.Source, "/v1/extract", body)
	if handled {
		return
	}
	src := s.lookup(req.Source)
	if src == nil {
		if fallback {
			// The owner is down and this node has no registration to
			// serve from: backpressure, don't 404 a source that exists.
			s.errorf(w, http.StatusServiceUnavailable,
				"owner of %q is unreachable and the source is not registered locally", req.Source)
			return
		}
		s.errorf(w, http.StatusNotFound, "unknown source %q: register it with POST /v1/wrap", req.Source)
		return
	}
	s.countForwarded(r, src)
	objs, err := src.svc.ServeExtract(r.Context(), req.Source, req.Pages)
	if errors.Is(err, objectrunner.ErrAborted) {
		writeJSON(w, http.StatusUnprocessableEntity, apiv1.Error{
			Error: fmt.Sprintf("source discarded: %v", err),
		})
		return
	}
	if err != nil {
		s.serveError(w, err)
		return
	}
	writeBody(w, objectrunner.AppendExtractResponse(nil, req.Source, len(req.Pages), objs, s.nodeID))
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.sources))
	for k := range s.sources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	infos := make([]apiv1.SourceInfo, 0, len(keys))
	for _, k := range keys {
		src := s.sources[k]
		info := apiv1.SourceInfo{
			Source:        k,
			SOD:           src.sod,
			ForwardedHits: src.forwardedHits.Load(),
			Stats:         statsWire(src.svc.Stats()),
		}
		if s.cluster != nil {
			info.Owner = s.cluster.Owner(k).ID
		}
		infos = append(infos, info)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, apiv1.SourcesResponse{Node: s.nodeID, Sources: infos})
}

func (s *Server) handleDeleteSource(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	src, ok := s.sources[key]
	if ok {
		delete(s.sources, key)
	}
	s.mu.Unlock()
	if ok {
		src.svc.Invalidate(key)
		s.obs.Count("http.sources.deleted", 1)
	}
	// In a cluster the invalidation fans out to every peer (the owner
	// holds the authoritative wrapper, but fallback serves may have
	// warmed copies elsewhere); a forwarded delete stays local.
	peersDeleted := s.fanoutDelete(r, key)
	if !ok && !peersDeleted {
		s.errorf(w, http.StatusNotFound, "unknown source %q", key)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			apiv1.HealthResponse{Status: "draining", Node: s.nodeID})
		return
	}
	s.mu.Lock()
	n := len(s.sources)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, apiv1.HealthResponse{
		Status:   "ok",
		Sources:  n,
		Inflight: s.inflight.Load(),
		Node:     s.nodeID,
	})
}

// wantsPrometheus reports whether the Accept header asks for the text
// exposition format. JSON stays the default (*/*, no header, or
// application/json), so existing scrapers keep working; Prometheus
// itself and `curl -H 'Accept: text/plain'` get the exposition format.
// The first recognized media type in listed order wins.
func wantsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json":
			return false
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// runtimeTotals are the Go runtime's garbage-collection totals the
// metrics view exports, with their runtime/metrics sources: how often
// the collector ran, the CPU it took and the heap bytes allocated that
// it had to collect. Over a scrape interval they show how much of the
// process's time went to collection, and how much of it a wrap's
// allocations cost the requests beside it.
var runtimeTotals = [...]struct{ name, sample string }{
	{"go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
	{"go_gc_cpu_seconds_total", "/cpu/classes/gc/total:cpu-seconds"},
	{"go_heap_alloc_bytes_total", "/gc/heap/allocs:bytes"},
}

// setRuntimeTotals reads runtimeTotals into the snapshot's gauges; the
// Prometheus form types them as counters by their _total names.
func setRuntimeTotals(snap *obs.Snapshot) {
	var samples [len(runtimeTotals)]metrics.Sample
	for i, t := range runtimeTotals {
		samples[i].Name = t.sample
	}
	metrics.Read(samples[:])
	for i, t := range runtimeTotals {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			snap.SetGauge(t.name, float64(v.Uint64()))
		case metrics.KindFloat64:
			snap.SetGauge(t.name, v.Float64())
		}
	}
}

// snapshot assembles the full metrics view: the observer's counters and
// histograms (per-source serve and store series included), plus
// process-level gauges — uptime, build info, inflight/draining, the
// runtime's garbage-collection totals, and the per-source cache
// occupancy.
func (s *Server) snapshot() (obs.Snapshot, map[string]objectrunner.StoreStats) {
	snap := s.obs.Snapshot()
	setRuntimeTotals(&snap)
	goVersion, revision := buildInfo()
	snap.SetGauge("uptime_seconds", time.Since(s.start).Seconds())
	snap.SetGauge("objectrunner_build_info", 1,
		obs.L("go_version", goVersion), obs.L("revision", revision))
	snap.SetGauge("http_inflight", float64(s.inflight.Load()))
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	snap.SetGauge("http_draining", draining)
	s.mu.Lock()
	stats := make(map[string]objectrunner.StoreStats, len(s.sources))
	for k, src := range s.sources {
		st := src.svc.Stats()
		stats[k] = st
		snap.SetGauge("store_wrappers", float64(st.Len), obs.L("source", k))
	}
	s.mu.Unlock()
	return snap, stats
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, stats := s.snapshot()
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w)
		return
	}
	goVersion, revision := buildInfo()
	writeJSON(w, http.StatusOK, metricsResponse{
		Counters:      snap.Counters,
		Gauges:        snap.Gauges,
		Histograms:    snap.Histograms,
		Sources:       stats,
		Inflight:      s.inflight.Load(),
		Draining:      s.draining.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         buildJSON{GoVersion: goVersion, Revision: revision},
	})
}

// handleTraces serves the flight recorder: the most recent requests
// (newest first) and the slowest since startup (slowest first), each as
// a compact trace record.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.flight.Snapshot()
	writeJSON(w, http.StatusOK, map[string][]traceJSON{
		"recent":  tracesJSON(recent),
		"slowest": tracesJSON(slowest),
	})
}

func tracesJSON(ts []obs.Trace) []traceJSON {
	out := make([]traceJSON, len(ts))
	for i, t := range ts {
		out[i] = traceJSON{
			ID:     t.ID,
			Name:   t.Name,
			Start:  t.Start,
			DurMs:  float64(t.Dur) / float64(time.Millisecond),
			Status: t.Status,
			Labels: t.Labels,
			Error:  t.Err,
		}
	}
	return out
}

// serveError maps a Service error to an HTTP status: deadline → 504,
// cancellation (client gone or server draining) and a closed cache →
// 503, anything else → 500.
func (s *Server) serveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.errorf(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
	case errors.Is(err, objectrunner.ErrClosed), errors.Is(err, context.Canceled):
		s.errorf(w, http.StatusServiceUnavailable, "request canceled: %v", err)
	default:
		s.errorf(w, http.StatusInternalServerError, "%v", err)
	}
}
