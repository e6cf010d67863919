package httpserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/obs"
)

// statusWriter records the status code a handler wrote, for the request
// span and the per-class status counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// maxTraceIDLen caps an inbound X-Trace-Id: longer ids are truncated, so
// a hostile caller cannot grow the trace ring or the span attributes.
const maxTraceIDLen = 64

// sanitizeTraceID filters an inbound trace id down to [0-9A-Za-z._-],
// capped at maxTraceIDLen bytes. An empty result means "mint one".
func sanitizeTraceID(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s) && sb.Len() < maxTraceIDLen; i++ {
		c := s[i]
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c == '.' || c == '_' || c == '-' {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// routeLabel maps a request path to a bounded label value. Raw paths
// must never become labels — the label set has to stay low-cardinality
// (see DESIGN.md §13) — so unknown paths collapse into "other".
func routeLabel(path string) string {
	switch {
	case path == "/v1/wrap":
		return "wrap"
	case path == "/v1/extract":
		return "extract"
	case path == "/v1/sources" || strings.HasPrefix(path, "/v1/sources/"):
		return "sources"
	case path == "/v1/debug/traces":
		return "traces"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// instrument is the outer middleware on every route: a per-request
// trace id (the sanitized inbound X-Trace-Id when the caller sent one —
// daemon traces join caller traces — else minted, echoed back either
// way and spanned through internal/obs), labeled request metrics and the
// flight recorder, panic recovery into a 500, the request body size
// limit, and the request context merged with the server lifetime —
// Abort cancels every request derived this way, which is how the drain
// sequence stops in-flight wraps and extracts.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if trace == "" {
			trace = fmt.Sprintf("req-%06d", s.reqID.Add(1))
		}
		w.Header().Set("X-Trace-Id", trace)
		route := routeLabel(r.URL.Path)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		sp := s.obs.Span("http.request",
			obs.A("method", r.Method), obs.A("path", r.URL.Path), obs.A("trace", trace))
		s.obs.Count("http.requests", 1)
		defer func() {
			if p := recover(); p != nil {
				s.obs.Count("http.panics", 1)
				sp.Event("http.panic", obs.A("value", fmt.Sprint(p)))
				if sw.status == 0 {
					writeJSON(sw, http.StatusInternalServerError,
						apiv1.Error{Error: "internal error"})
				}
				// A panic after the response started cannot be converted;
				// the connection is abandoned but the process lives on.
			}
			sp.End(obs.A("status", sw.status))
			d := time.Since(start)
			class := fmt.Sprintf("%dxx", sw.status/100)
			s.obs.Count("http.status."+class, 1)
			s.obs.CountL("http.requests_by_route", 1,
				obs.L("route", route), obs.L("status", class))
			s.obs.ObserveL("http.request", d, obs.L("route", route))
			s.flight.Record(obs.Trace{
				ID:     trace,
				Name:   r.Method + " " + r.URL.Path,
				Start:  start,
				Dur:    d,
				Status: sw.status,
				Labels: map[string]string{"route": route},
			})
		}()
		if r.Body != nil && s.cfg.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// limited applies the backpressure semaphore to the expensive endpoints:
// when MaxInflight requests are already running, the request is refused
// immediately with 429 + Retry-After instead of queuing unboundedly; a
// draining server refuses with 503.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.obs.Count("http.drain_refused", 1)
			s.errorf(w, http.StatusServiceUnavailable, "draining: not accepting new work")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.obs.Count("http.throttled", 1)
			w.Header().Set("Retry-After", "1")
			s.errorf(w, http.StatusTooManyRequests,
				"at capacity: %d requests in flight", cap(s.sem))
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.sem
		}()
		h(w, r)
	}
}

func (s *Server) errorf(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiv1.Error{Error: fmt.Sprintf(format, args...)})
}

// writeJSON writes the response envelope; encode errors mean the client
// is gone and are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
